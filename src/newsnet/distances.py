"""Information flow, effective distance, and per-network distance stats.

The flow on a follow edge (i, j) aggregates over every diffusion network that
contains the edge: either the number of such news stories (shared_news) or the
sum of min(T(i,X), T(j,X)) over them (shared_frequency). Effective distance
turns flow into an edge length (Brockmann & Helbing, Science 2013)

    d(i, j) = 1 - ln(F_ij / sum_l F_lj)

which is >= 1 whenever F_ij > 0 and infinite on zero-flow edges.
`flow_matrix` computes these lengths with `math.log` for every edge of a
`features.NodeTable`, under both definitions, in the table's edge order, so
each network's lengths are one slice of a definition's array.

`distance_stats` measures hop counts (geodesic distance) when it is given no
lengths, and effective distance over the edge lengths it is given. It
reports the max, mean and median over all finite ordered pairs (s, t), s != t.
The three floats equal, bit for bit, those of one breadth-first search
(geodesic) or binary-heap Dijkstra (effective) per source, sources in sorted
order, with the mean taken by Python's `sum` (see "The effective mean").

Hop counts. A bit-parallel multi-source BFS (MS-BFS; Then et al., VLDB 2014)
counts the ordered pairs at each hop distance, with 64 BFS roots to a uint64
word. It runs backwards, from every node at once over the reversed edges: the
pairs at distance h are the same set either way, and backwards each level
groups the edges by tail, the order they come sorted in. A level gathers the
frontier words of every edge's head, ORs them per tail with one
`np.bitwise_or.reduceat`, keeps the bits of roots the tail has not reached
and counts them through a byte table (`np.bitwise_count` needs numpy 2). The
stats then come from the counts alone: the max is the deepest level, the
mean the exact int sum of h x count(h) divided once by the number of pairs,
and the median is read off the cumulative counts. The distances are small
integers, whose float sum is exact in any order, so these are the floats of
the per-source BFS.

Effective distance. Nodes are the network's positions, which follow its
sorted ids, and only edges of finite length take part. A block of sources is
relaxed at once, Bellman-Ford style, on a nodes x sources distance array:
each round sets d(s, v) to the minimum of itself and of d(s, u) + w(u, v)
over the in-edges (u, v), and the rounds stop when nothing improves. The
per-target minimum runs over the edges in slot-major order (the first
in-edge of every target, then the second of every target with two or more,
...), as one contiguous `np.minimum` per slot.

Exactness. Rounded addition is monotone, and every length is >= 1, so
fl(d + w) > d for every finite d below 2**53. Under these two conditions the
fixed point of the relaxation is, for every pair, the least over paths of
the path length summed left to right in floating point, and Dijkstra's
algorithm returns the same values (Knuth, "A generalization of Dijkstra's
algorithm", IPL 1977). The distances therefore equal the heap's bit for bit,
whatever order the relaxations take.

The effective mean. Max and median do not depend on the order of the
values. The mean is a left-to-right sum over sources in sorted order and,
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

Memory. Both take their sources in blocks. The relaxation takes as many as
keep each dense nodes x sources or edges x sources array at or under
`_BLOCK` entries (512 KB), and never fewer than `_MIN_WIDTH`, below which
per-call overhead dominates; it keeps the finite distances themselves,
8 bytes per reachable pair, whole for the median. The MS-BFS takes as many
words of roots as keep its nodes x words and edges x words arrays within
`_BLOCK`, at least one (`_word_width`), and keeps one count per level. The
arrays of a call thus stay small on the benchmark's networks, and under
64 MB for networks of up to a million nodes or edges.
"""

from __future__ import annotations

import bisect
import itertools
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
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # root r of a word: bit r
_BITS = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)  # set bits


@dataclass(frozen=True)
class DistanceStats:
    maximum: float
    mean: float
    median: float


def flow_matrix(graph: SocialGraph, table) -> dict:
    """The effective length of every edge of a `features.NodeTable`, in its
    edge order, as {definition: lengths} over FLOW_DEFINITIONS.

    Each table edge becomes its key over the graph's ranks; the flows are one
    `bincount` over the distinct keys, and the inflows one over their
    followees. Both sum small integers, exact in any order, so they equal the
    dict loop's left-to-right sums. Each length is `1 - math.log(f / inflow)`
    on Python floats. Every edge carries flow from its own story, so every
    length is finite and >= 1.
    """
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
    heads = edge_keys % max(n, 1)
    lengths = {}
    for definition, weights in ((SHARED_NEWS, None), (SHARED_FREQUENCY, np.minimum(
            table.count[table.source], table.count[table.target]))):
        flows = np.bincount(edge, weights=weights, minlength=edge_keys.size)
        inflow = np.bincount(heads, weights=flows, minlength=n)[heads]
        lengths[definition] = np.array(
            [1.0 - math.log(f / total)
             for f, total in zip(flows.astype(np.float64).tolist(), inflow.tolist())],
            dtype=np.float64)[edge]
    return lengths


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


def _relax(dist, src, heads, widths, lengths) -> None:
    """Bellman-Ford rounds on dist (nodes x sources) until nothing improves."""
    while True:
        candidates = dist[src]
        candidates += lengths
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


def _word_width(n, m) -> int:
    """Words of 64 roots per block: the most that keep words x max(n, m) within
    _BLOCK, at least one, and no more than the network's nodes fill."""
    return max(1, min(-(-n // 64), _BLOCK // max(n, m, 1)))


def _hop_counts(n, src, dst) -> list:
    """counts[h - 1]: the ordered pairs (s, t), s != t, at hop distance h.

    The MS-BFS of the module docstring: level h finds, for each tail, the
    roots (targets) it reaches first through its out-neighbours' frontier.
    """
    new_tail = np.empty(src.size, dtype=bool)  # edges come sorted by src
    new_tail[:1] = True
    np.not_equal(src[1:], src[:-1], out=new_tail[1:])
    starts = np.flatnonzero(new_tail)
    tails = src[starts]
    row = np.searchsorted(tails, dst)  # each edge's head among the tails, or the
    row[tails.take(row, mode="clip") != dst] = tails.size  # last row of found_by, 0
    n_words = -(-n // 64)
    width = _word_width(n, src.size)
    counts = []
    for first in range(0, n_words, width):
        roots = np.arange(64 * first, min(64 * (first + width), n))
        own = np.zeros((n, -(-roots.size // 64)), dtype=np.uint64)  # each root's bit
        own[roots, roots // 64 - first] = _BIT[roots % 64]
        unseen = ~own[tails]
        frontier = own[dst]
        found_by = np.zeros((tails.size + 1, own.shape[1]), dtype=np.uint64)
        for level in itertools.count():
            reach = np.bitwise_or.reduceat(frontier, starts, axis=0)
            reach &= unseen
            found = int(_BITS[reach.view(np.uint8)].sum())
            if not found:
                break
            unseen ^= reach
            found_by[:-1] = reach
            frontier = found_by[row]
            if level == len(counts):
                counts.append(0)
            counts[level] += found
    return counts


def _median(count, kth) -> float:
    """The median of `count` ascending values, where kth(k) is the k-th from 0."""
    mid = count // 2
    return kth(mid) if count % 2 else (kth(mid - 1) + kth(mid)) / 2.0


def distance_stats(network: DiffusionNetwork, lengths=None) -> DistanceStats:
    """Max / mean / median over all finite ordered-pair distances in a network.

    Geodesic without `lengths`, effective distance otherwise: the float array
    `lengths` holds the length of each of `network.edges`, each >= 1, and an
    edge of infinite length takes no part.
    """
    n = network.n_nodes
    src, dst = network.edges.T
    if lengths is None:
        counts = _hop_counts(n, src, dst)
        if not counts:
            return DistanceStats(maximum=0.0, mean=0.0, median=0.0)
        below = list(itertools.accumulate(counts))  # below[h - 1]: pairs at most h apart
        count = below[-1]
        total = sum(h * c for h, c in enumerate(counts, 1))
        middle = _median(count, lambda k: float(bisect.bisect_right(below, k) + 1))
        return DistanceStats(maximum=float(len(counts)), mean=total / count, median=middle)
    finite = lengths < math.inf
    src, dst, lengths = src[finite], dst[finite], lengths[finite]
    if not src.size:
        return DistanceStats(maximum=0.0, mean=0.0, median=0.0)
    slot_major, heads, widths = _in_edge_slots(src, dst, n)
    width = max(_MIN_WIDTH, _BLOCK // max(n, src.size))
    src = src[slot_major]
    lengths = lengths[slot_major, None]

    values = np.empty(n * (n - 1))  # pages are touched only as values are found
    count = 0
    total = 0.0
    for first in range(0, n, width):
        sources = np.arange(first, min(first + width, n))
        dist = np.full((n, sources.size), math.inf)
        dist[sources, np.arange(sources.size)] = 0.0
        _relax(dist, src, heads, widths, lengths)
        finite = dist[(dist > 0.0) & (dist < math.inf)]
        values[count:count + finite.size] = finite
        count += finite.size
        total = _touch_order_sum(total, dist, src, heads, widths)
    values = values[:count]
    values.sort()
    return DistanceStats(maximum=float(values[-1]), mean=total / count,
                         median=_median(count, lambda k: float(values[k])))
