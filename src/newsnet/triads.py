"""Triangle enumeration and label-aware triad classification.

A triangle is an unordered node triple whose three pairs are all connected in
the undirected closure of a diffusion network. Triangles whose pairs each
carry a single direction fall into two orientation kinds:

  transitive: one source (two outgoing), one sink (two incoming), one middle
  cyclic:     a -> b -> c -> a

With each node labeled normal (n) or susceptible (s), transitive triangles
have 2^3 = 8 classes keyed by (source, middle, sink) and cyclic triangles 4
classes up to rotation -- 12 in total. Triangles containing a reciprocal pair,
or (otherwise) any node of unknown susceptibility, are excluded from the 12
classes and counted in diagnostic buckets; the reciprocal check runs first so
the buckets partition the total.

Enumeration is label-free and cached separately from classification, because
node classes change with every training fold and threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffusion import DiffusionNetwork
from .susceptibility import NORMAL, SUSCEPTIBLE

TRANSITIVE_CLASSES = tuple(
    f"t_{a}{b}{c}" for a in "ns" for b in "ns" for c in "ns"
)
CYCLIC_CLASSES = ("c_nnn", "c_nns", "c_nss", "c_sss")
TRIAD_CLASSES = TRANSITIVE_CLASSES + CYCLIC_CLASSES  # 12 classes


@dataclass(frozen=True)
class TriangleIndex:
    """Orientation-resolved triangles of one network (no node labels)."""

    total: int
    reciprocal: int
    oriented: tuple  # of ("transitive", (source, middle, sink)) or ("cyclic", (a, b, c))


@dataclass(frozen=True)
class TriadCensus:
    total: int
    class_counts: dict  # class name -> count, all 12 keys present
    reciprocal: int
    unknown: int

    def classified_total(self) -> int:
        return sum(self.class_counts.values())


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


def census(network: DiffusionNetwork, model,
           index: TriangleIndex | None = None) -> TriadCensus:
    """Classify a network's triangles under a susceptibility model.

    `model` needs a classify(user) -> {normal, susceptible, unknown} method.
    Pass a precomputed TriangleIndex to avoid re-enumeration.
    """
    if index is None:
        index = enumerate_triangles(network)
    counts = {name: 0 for name in TRIAD_CLASSES}
    unknown = 0
    for kind, tri in index.oriented:
        labels = [model.classify(n) for n in tri]
        if any(lab not in (NORMAL, SUSCEPTIBLE) for lab in labels):
            unknown += 1
            continue
        letters = ["n" if lab == NORMAL else "s" for lab in labels]
        if kind == "transitive":
            counts["t_" + "".join(letters)] += 1
        else:
            counts[CYCLIC_CLASSES[letters.count("s")]] += 1
    return TriadCensus(total=index.total, class_counts=counts,
                       reciprocal=index.reciprocal, unknown=unknown)


def triad_features(cens: TriadCensus) -> dict:
    """Per-class triad counts and proportions.

    Proportions are over the classified total (the 12 classes), 0 when no
    triangle is classified.
    """
    classified = cens.classified_total()
    out = {}
    for name in TRIAD_CLASSES:
        out[f"n_triad_{name}"] = float(cens.class_counts[name])
        out[f"pct_triad_{name}"] = (cens.class_counts[name] / classified
                                    if classified else 0.0)
    return out
