"""Small shared helpers: seed derivation, sums, distinct values, index ranges,
sorted lookup, CSV writing."""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from a tuple of descriptors (platform independent)."""
    payload = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def left_sum(values) -> float:
    """The float sum of a sequence added left to right, one value at a time.

    0.0 when empty. `np.cumsum` adds sequentially (np.sum is pairwise), so
    this is CPython 3.11's builtin `sum` bit for bit, on every Python
    version: 3.12 made the builtin compensated.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def distinct(values) -> np.ndarray:
    """The distinct values of an int array, ascending: `np.unique` by one sort.

    Plain `np.unique` of numpy 2 hashes first, which on mostly distinct keys
    is tens of times slower than sorting them.
    """
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def ranges(starts, lens) -> np.ndarray:
    """The index ranges [start, start + len), concatenated in order."""
    out = np.repeat(starts - np.cumsum(lens) + lens, lens)
    out += np.arange(out.size)
    return out


def find(keys, wanted) -> tuple:
    """Where each of `wanted` sits in the ascending array `keys`, and whether it is there.

    Returns the `np.searchsorted` positions and a mask of the values found.
    """
    wanted = np.asarray(wanted)
    at = np.searchsorted(keys, wanted)
    found = at < len(keys)
    found[found] = keys[at[found]] == wanted[found]
    return at, found


def _cell(value) -> str:
    # repr() of a Python float is the shortest round-trip form, so re-runs
    # produce byte-identical CSV output.
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if hasattr(value, "item"):  # numpy scalar
        return _cell(value.item())
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
