"""Package code adds floats left to right, never with the builtin `sum`.

CPython 3.12 made the builtin `sum` of floats compensated, so an output
that adds floats with it has other last bits on 3.12 than on 3.11. The
package adds floats with `util.left_sum` (one value at a time, through
`np.cumsum`), which gives 3.11's bits on every version. This guard holds on
any interpreter, so it covers 3.12 where no 3.12 is installed: a builtin
`sum` call in `src/` must be one of the integer-only sites below.
"""

import ast
import random
from pathlib import Path

import numpy as np

from newsnet.util import left_sum

SRC = Path(__file__).resolve().parents[1] / "src" / "newsnet"

# module -> source text of each builtin `sum` call there; all add integers
INTEGER_SUMS = {
    "corpus.py": [
        "sum((len(by_user) for by_user in self.counts.values()))",
        "sum((1 for lab in table.labels.values() if lab == FAKE))",
        "sum((1 for lab in table.labels.values() if lab == TRUE))",
    ],
    "distances.py": ["sum((h * c for h, c in enumerate(counts, 1)))"],
    "ml/crossval.py": ["sum((conf[key] for conf in folds))"],
    "wl.py": ["sum((count * large.get(label, 0) for label, count in small.items()))"],
}


def _builtin_sums() -> dict:
    found: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                found.setdefault(path.relative_to(SRC).as_posix(), []).append(
                    ast.unparse(node))
    return {module: sorted(calls) for module, calls in found.items()}


def test_no_builtin_sum_outside_the_integer_sites():
    assert _builtin_sums() == {module: sorted(calls)
                               for module, calls in INTEGER_SUMS.items()}


def _loop_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def test_left_sum_adds_one_value_at_a_time():
    rng = random.Random(3)
    rows = [[rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-12, 12)
             for _ in range(rng.randint(0, 9))] for _ in range(200)]
    assert [left_sum(row) for row in rows] == [_loop_sum(row) for row in rows]
    assert left_sum(np.array(rows[5])) == _loop_sum(rows[5])
    assert left_sum([]) == 0.0
