"""Information flow, effective distance, and per-network distance stats.

The flow on a follow edge (i, j) aggregates over every diffusion network that
contains the edge: either the number of such news stories (shared_news) or the
sum of min(T(i,X), T(j,X)) over them (shared_frequency). Effective distance
turns flow into an edge length (Brockmann & Helbing, Science 2013)

    d(i, j) = 1 - ln(F_ij / sum_l F_lj)

which is >= 1 whenever F_ij > 0 and infinite on zero-flow edges.
`flow_matrix` computes these lengths with `math.log` for every edge of a
`features.NodeTable`, in the table's edge order, so each network's lengths
are one slice of the array.

`distance_stats` measures hop counts (geodesic distance) when it is given no
lengths, and effective distance over the edge lengths it is given. It
reports the max, mean and median over all finite ordered pairs (s, t), s != t.
The three floats equal, bit for bit, those of one breadth-first search
(geodesic) or binary-heap Dijkstra (effective) per source, sources in sorted
order, with the mean taken by Python's `sum` (see the last paragraph).

Algorithm. Nodes are the network's positions, which follow its sorted ids,
and only edges of finite length take part. A block of sources is relaxed at once,
Bellman-Ford style, on a nodes x sources distance array: each round sets
d(s, v) to the minimum of itself and of d(s, u) + w(u, v) over the in-edges
(u, v), and the rounds stop when nothing improves. Geodesic distance is the
case w = 1.0. The per-target minimum runs over the edges in slot-major
order (the first in-edge of every target, then the second of every target
with two or more, ...), as one contiguous `np.minimum` per slot.

Exactness. Rounded addition is monotone, and every length is >= 1, so
fl(d + w) > d for every finite d below 2**53. Under these two conditions the
fixed point of the relaxation is, for every pair, the least over paths of
the path length summed left to right in floating point, and Dijkstra's
algorithm returns the same values (Knuth, "A generalization of Dijkstra's
algorithm", IPL 1977). The distances therefore equal the heap's bit for bit,
whatever order the relaxations take.

The mean. Max and median do not depend on the order of the values, and
geodesic distances are small integers, whose float sum is exact in any order.
The effective mean is a left-to-right sum over sources in sorted order and,
within a source, over targets in the order the heap Dijkstra first touches
them. That order is recovered from the final distances alone:

  - the heap pops nodes in (distance, id) order, because every length is
    >= 1: a stable argsort of each source's distances, whose inverse is each
    node's pop rank;
  - a target is first touched by its in-neighbour of smallest pop rank, and
    the targets one node touches come in ascending id order, as its
    adjacency list is sorted;
  - sorted by (source, parent's pop rank, target), the distances are summed
    with `np.cumsum(...)[-1]`, which adds one value at a time.

That is the order and the rounding of CPython 3.11's `sum` over a list of
floats. Python 3.12 made the float `sum` compensated, so there a plain `sum`
of the same list can differ from this mean in the last bits.

Memory. Sources are taken in blocks: as many as keep each dense nodes x
sources or edges x sources array at or under `_BLOCK` entries (512 KB), and
never fewer than `_MIN_WIDTH`, below which per-call overhead dominates. The
arrays of a call thus stay small on the benchmark's networks, and under
64 MB for networks of up to a million nodes or edges. Only the finite
distances themselves, 8 bytes per reachable pair, are kept whole, for the
median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import SocialGraph
from .diffusion import DiffusionNetwork
from .util import distinct

SHARED_NEWS = "shared_news"
SHARED_FREQUENCY = "shared_frequency"
FLOW_DEFINITIONS = (SHARED_NEWS, SHARED_FREQUENCY)

_BLOCK = 1 << 16  # entries of one (nodes or edges) x sources array: 512 KB
_MIN_WIDTH = 8  # sources per block on large networks; fewer run at per-call overhead


@dataclass(frozen=True)
class DistanceStats:
    maximum: float
    mean: float
    median: float


def flow_matrix(graph: SocialGraph, table, definition: str) -> np.ndarray:
    """The effective length of every edge of a `features.NodeTable`, in its edge order.

    Each table edge becomes its key over the graph's ranks; the flows are one
    `bincount` over the distinct keys, and the inflows one over their
    followees. Both sum small integers, exact in any order, so they equal the
    dict loop's left-to-right sums. Each length is `1 - math.log(f / inflow)`
    on Python floats. Every edge carries flow from its own story, so every
    length is finite and >= 1.
    """
    if definition not in FLOW_DEFINITIONS:
        raise ValueError(f"definition must be one of {FLOW_DEFINITIONS}, got {definition!r}")
    followers, followees = table.rank[table.source], table.rank[table.target]
    followed = graph.follows(followers, followees)
    if not followed.all():
        i = int(np.argmin(followed))
        edge = (graph.users[followers[i]], graph.users[followees[i]])
        raise ValueError(f"network edge {edge!r} not in the social graph")
    n = graph.n_nodes
    keys = followers * n + followees
    edge_keys = distinct(keys)
    edge = np.searchsorted(edge_keys, keys)
    weights = None
    if definition == SHARED_FREQUENCY:
        weights = np.minimum(table.count[table.source], table.count[table.target])
    flows = np.bincount(edge, weights=weights, minlength=edge_keys.size)
    heads = edge_keys % max(n, 1)
    inflow = np.bincount(heads, weights=flows, minlength=n)[heads]
    lengths = [1.0 - math.log(f / total)
               for f, total in zip(flows.astype(np.float64).tolist(), inflow.tolist())]
    return np.array(lengths, dtype=np.float64)[edge]


def _in_edge_slots(src, dst, n) -> tuple:
    """Slot-major edge order, the targets by in-degree, and the slot widths.

    Targets (`heads`) come by in-degree, largest first, ties by rank. Slot k
    lists the k-th in-edge of each of the first widths[k] targets, which are
    exactly the targets with more than k in-edges.
    """
    in_degree = np.bincount(dst, minlength=n)
    heads = np.argsort(-in_degree, kind="stable")[:np.count_nonzero(in_degree)]
    position = np.empty(n, dtype=np.int64)
    position[heads] = np.arange(heads.size)
    by_target = np.argsort(dst, kind="stable")
    grouped = dst[by_target]
    slot = np.empty_like(by_target)
    slot[by_target] = np.arange(dst.size) - np.searchsorted(grouped, grouped)
    return np.lexsort((position[dst], slot)), heads, np.bincount(slot).tolist()


def _slot_min(values, widths):
    """Per target, in `heads` order, the minimum of its in-edges' rows.

    `values` holds one row per edge, in slot-major order (`_in_edge_slots`).
    """
    least = values[:widths[0]].copy()
    offset = widths[0]
    for width in widths[1:]:
        np.minimum(least[:width], values[offset:offset + width], out=least[:width])
        offset += width
    return least


def _relax(dist, src, heads, widths, step) -> None:
    """Bellman-Ford rounds on dist (nodes x sources) until nothing improves."""
    while True:
        candidates = dist[src]
        candidates += step
        reach = _slot_min(candidates, widths)
        current = dist[heads]
        if not (reach < current).any():
            return
        dist[heads] = np.minimum(current, reach)


def _touch_order_sum(total, dist, src, heads, widths) -> float:
    """Continue Python's left-to-right sum over a block of sources.

    Within a source (a column of dist), the finite distances are added in the
    order a binary-heap Dijkstra first touches their targets. Entries that
    are not counted are added as 0.0, which leaves every partial sum as is:
    the source itself and unreachable targets.
    """
    n, width = dist.shape
    popped = np.argsort(dist, axis=0, kind="stable")
    pop_rank = np.empty_like(popped)
    pop_rank[popped, np.arange(width)] = np.arange(n)[:, None]
    parent = _slot_min(pop_rank[src], widths)
    touched = np.argsort(parent * n + heads[:, None], axis=0)
    values = np.take_along_axis(dist[heads], touched, axis=0)
    values[np.isinf(values)] = 0.0
    return float(np.cumsum(np.append(total, values.T))[-1])


def distance_stats(network: DiffusionNetwork, lengths=None) -> DistanceStats:
    """Max / mean / median over all finite ordered-pair distances in a network.

    Geodesic without `lengths`, effective distance otherwise: the float array
    `lengths` holds the length of each of `network.edges`, each >= 1, and an
    edge of infinite length takes no part.
    """
    n = network.n_nodes
    src, dst = network.edges.T
    if lengths is not None:
        finite = lengths < math.inf
        src, dst, step = src[finite], dst[finite], lengths[finite]
    if not src.size:
        return DistanceStats(maximum=0.0, mean=0.0, median=0.0)
    slot_major, heads, widths = _in_edge_slots(src, dst, n)
    width = max(_MIN_WIDTH, _BLOCK // max(n, src.size))
    src = src[slot_major]
    step = 1.0 if lengths is None else step[slot_major, None]

    values = np.empty(n * (n - 1))  # pages are touched only as values are found
    count = 0
    total = 0.0
    for first in range(0, n, width):
        sources = np.arange(first, min(first + width, n))
        dist = np.full((n, sources.size), math.inf)
        dist[sources, np.arange(sources.size)] = 0.0
        _relax(dist, src, heads, widths, step)
        finite = dist[(dist > 0.0) & (dist < math.inf)]
        values[count:count + finite.size] = finite
        count += finite.size
        if lengths is not None:
            total = _touch_order_sum(total, dist, src, heads, widths)
    if not count:
        return DistanceStats(maximum=0.0, mean=0.0, median=0.0)
    values = values[:count]
    values.sort()
    if lengths is None:
        total = float(values.sum())  # integers below 2**53: exact in any order
    mid = values.size // 2
    if values.size % 2:
        middle = float(values[mid])
    else:
        middle = (float(values[mid - 1]) + float(values[mid])) / 2.0
    return DistanceStats(maximum=float(values[-1]), mean=total / count,
                         median=middle)
