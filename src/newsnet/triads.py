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

Enumeration is label-free and cached once per network, because node classes
change with every training fold and threshold. `Triangles` holds the oriented
triangles of all of a corpus's networks as arrays over one node numbering
(`features.NodeTable`'s), and `census` classifies all of them at once from one
class-code vector: class index 4·[source is s] + 2·[middle is s] + [sink is
s] for a transitive triangle, 8 + (number of s) for a cyclic one, counted per
network with one `np.bincount`. The counts are exact integers, so they equal
a per-triangle loop (the dict census in `tests/oracles.py`) whatever the
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionNetwork
from .susceptibility import CLASSES, SUSCEPTIBLE, UNKNOWN

TRANSITIVE_CLASSES = tuple(
    f"t_{a}{b}{c}" for a in "ns" for b in "ns" for c in "ns"
)
CYCLIC_CLASSES = ("c_nnn", "c_nns", "c_nss", "c_sss")
TRIAD_CLASSES = TRANSITIVE_CLASSES + CYCLIC_CLASSES  # 12 classes

_SUSCEPTIBLE = CLASSES.index(SUSCEPTIBLE)
_UNKNOWN = CLASSES.index(UNKNOWN)


@dataclass(frozen=True)
class TriangleIndex:
    """Orientation-resolved triangles of one network (no node labels)."""

    total: int
    reciprocal: int
    oriented: tuple  # of ("transitive", (source, middle, sink)) or ("cyclic", (a, b, c))


@dataclass(frozen=True)
class Triangles:
    """The oriented triangles of many networks over one node numbering.

    Triangle i lies in network `network[i]`; `roles[i]` holds its node
    numbers as (source, middle, sink), or in cycle order when `cyclic[i]`.
    """

    network: np.ndarray  # (m,) int64
    cyclic: np.ndarray  # (m,) bool
    roles: np.ndarray  # (m, 3) int64
    n_networks: int


def enumerate_triangles(network: DiffusionNetwork) -> TriangleIndex:
    und = {v: set() for v in network.nodes}
    for u, v in network.edges:
        und[u].add(v)
        und[v].add(u)
    # rank by (degree, id): each triangle listed once from its lowest-rank node
    rank = {v: i for i, v in enumerate(sorted(network.nodes,
                                              key=lambda n: (len(und[n]), n)))}
    edges = network.edges
    total = 0
    reciprocal = 0
    oriented = []
    for u in sorted(network.nodes):
        higher = {w for w in und[u] if rank[w] > rank[u]}
        for v in sorted(higher):
            for w in sorted(higher & und[v]):
                if rank[w] <= rank[v]:
                    continue
                total += 1
                tri = (u, v, w)
                if any((a, b) in edges and (b, a) in edges
                       for a in tri for b in tri if a < b):
                    reciprocal += 1
                    continue
                out_deg = {n: sum(1 for x in tri if x != n and (n, x) in edges)
                           for n in tri}
                if all(d == 1 for d in out_deg.values()):
                    oriented.append(("cyclic", tri))
                else:
                    source = next(n for n in tri if out_deg[n] == 2)
                    sink = next(n for n in tri if out_deg[n] == 0)
                    middle = next(n for n in tri if n != source and n != sink)
                    oriented.append(("transitive", (source, middle, sink)))
    return TriangleIndex(total=total, reciprocal=reciprocal, oriented=tuple(oriented))


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
    n = triangles.n_networks
    width = len(TRIAD_CLASSES)
    return np.bincount(triangles.network[known] * width + kind[known],
                       minlength=n * width).reshape(n, width)
