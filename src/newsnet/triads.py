"""Triangle enumeration and label-aware triad classification.

A triangle is an unordered node triple whose three pairs are all connected in
the undirected closure of a diffusion network. Triangles whose pairs each
carry a single direction fall into two orientation kinds:

  transitive: one source (two outgoing), one sink (two incoming), one middle
  cyclic:     a -> b -> c -> a

With each node labeled normal (n) or susceptible (s), transitive triangles
have 2^3 = 8 classes keyed by (source, middle, sink) and cyclic triangles 4
classes up to rotation -- 12 in total. Triangles containing a reciprocal pair,
or (otherwise) any node of unknown susceptibility, fall in none of the 12
classes; the reciprocal ones never reach the oriented list.

Enumeration is label-free and done once per node table, because node classes
change with every training fold and threshold. `enumerate_triangles` lists
the triangles of all of a `features.NodeTable`'s networks at once, by the
degree-ordered listing of Chiba & Nishizeki (SIAM J. Comput. 14, 1985) on
arrays: nodes are ranked by (undirected degree, node number), each
undirected pair is oriented from its lower- to its higher-ranked node, and
every pair (v, w) of one node u's higher neighbours, v below w, is a wedge
that closes into a triangle when v -> w is an oriented pair (one
`searchsorted` over the sorted pair keys). Each triangle is thus listed
once, as (u, v, w) in rank order, and its arcs come from lookups of the
directed edge keys. Node numbers are sorted ids within a network, so the
ranks and the (u, v, w) order are those of a per-network loop over ids by
(degree, id), kept in `tests/oracles.py` as the oracle.

`Triangles` holds every network's triangle total, and the oriented triangles
as arrays over the table's node numbering. `census` classifies all of them
at once from one class-code vector: class index 4·[source is s] +
2·[middle is s] + [sink is s] for a transitive triangle, 8 + (number of s)
for a cyclic one, counted per network with one `np.bincount`. The counts
are exact integers, so they equal a per-triangle loop (the dict census in
`tests/oracles.py`) whatever the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .susceptibility import CLASSES, SUSCEPTIBLE, UNKNOWN
from .util import distinct, find, ranges

TRANSITIVE_CLASSES = tuple(
    f"t_{a}{b}{c}" for a in "ns" for b in "ns" for c in "ns"
)
CYCLIC_CLASSES = ("c_nnn", "c_nns", "c_nss", "c_sss")
TRIAD_CLASSES = TRANSITIVE_CLASSES + CYCLIC_CLASSES  # 12 classes

_SUSCEPTIBLE = CLASSES.index(SUSCEPTIBLE)
_UNKNOWN = CLASSES.index(UNKNOWN)


@dataclass(frozen=True, eq=False)
class Triangles:
    """The triangles of many networks over one node numbering.

    Network t has `total[t]` triangles. Those without a reciprocal pair are
    oriented: triangle i lies in network `network[i]`, and `roles[i]` holds
    its node numbers as (source, middle, sink), or, when `cyclic[i]`, in
    rank order.
    """

    total: np.ndarray  # (networks,) int64
    network: np.ndarray  # (m,) int64
    cyclic: np.ndarray  # (m,) bool
    roles: np.ndarray  # (m, 3) int64


def _wedges(low, high, n):
    """Every pair of entries (i, j), i < j, within each row of the oriented pairs.

    `low` is ascending and each row's entries come in rank order, so entry i
    holds the lower-ranked of the two higher neighbours.
    """
    row_size = np.bincount(low, minlength=n)
    later = (np.cumsum(row_size) - 1)[low] - np.arange(low.size)
    return np.repeat(np.arange(low.size), later), ranges(np.arange(1, low.size + 1), later)


def enumerate_triangles(table) -> Triangles:
    """Every triangle of a `features.NodeTable`'s networks, classified by orientation."""
    n = table.network.size
    size = max(n, 1)
    # undirected pairs from the table's neighbour CSR, each once
    degree = np.diff(table.neighbour_ptr)
    rows, cols = np.repeat(np.arange(n), degree), table.neighbours
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    up = rank[rows] < rank[cols]
    low, high = rows[up], cols[up]
    by_row = np.lexsort((rank[high], low))
    low, high = low[by_row], high[by_row]
    first, second = _wedges(low, high, n)
    v, w = high[first], high[second]
    closed = find(np.sort(low * size + high), v * size + w)[1]
    tri = np.column_stack([low[first][closed], v[closed], w[closed]])
    listed = table.network[tri[:, 0]]

    arcs = distinct(table.source * size + table.target)
    ends = ((0, 1), (0, 2), (1, 2))
    forward = [find(arcs, tri[:, a] * size + tri[:, b])[1] for a, b in ends]
    backward = [find(arcs, tri[:, b] * size + tri[:, a])[1] for a, b in ends]
    reciprocal = np.logical_or.reduce([f & b for f, b in zip(forward, backward)])
    # out-degree of each corner within its triangle
    out = np.column_stack([forward[0].astype(np.int64) + forward[1],
                           backward[0].astype(np.int64) + forward[2],
                           backward[1].astype(np.int64) + backward[2]])
    oriented = ~reciprocal
    tri, out = tri[oriented], out[oriented]
    # source (2 out-arcs), middle (1), sink (0); a cyclic triangle stays in rank order
    roles = np.take_along_axis(tri, np.argsort(-out, axis=1, kind="stable"), axis=1)
    return Triangles(total=np.bincount(listed, minlength=table.sizes.size),
                     network=listed[oriented], cyclic=(out == 1).all(axis=1), roles=roles)


def census(triangles: Triangles, codes: np.ndarray) -> np.ndarray:
    """Counts of the 12 triad classes per network, (n_networks, 12) int64.

    `codes[k]` is node k's class code, an index into
    `susceptibility.CLASSES`; columns follow TRIAD_CLASSES. A triangle with
    a node of unknown class is counted in no column.
    """
    labels = codes[triangles.roles]
    known = (labels != _UNKNOWN).all(axis=1)
    susceptible = (labels == _SUSCEPTIBLE).astype(np.int64)
    kind = np.where(triangles.cyclic, len(TRANSITIVE_CLASSES) + susceptible.sum(axis=1),
                    susceptible @ np.array([4, 2, 1]))
    n = triangles.total.size
    width = len(TRIAD_CLASSES)
    return np.bincount(triangles.network[known] * width + kind[known],
                       minlength=n * width).reshape(n, width)
