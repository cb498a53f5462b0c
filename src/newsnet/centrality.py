"""Eight node-influence measures on the directed follow graph.

Computed once on the full social graph, as one array per measure indexed by
user rank; per-network features later read the entries of a network's
spreaders. Conventions:

  - degrees are raw edge counts
  - closeness(v) = (reachable count) / (sum of distances), over the nodes
    actually reachable from / to v; 0 when nothing is reachable
  - betweenness is the unnormalized Brandes accumulation over ordered pairs;
    shortest-path counts are float64, exact below 2**53
  - PageRank: damping 0.85, uniform teleport, dangling mass redistributed,
    power iteration until L1 residual < 1e-10 (max 200 iterations); sums to 1
  - hub/authority: mutually reinforcing power iteration, L2-normalized each
    step, same stopping rule; zero vectors on an edgeless graph

Betweenness and closeness run one level-synchronous BFS per source, for a
block of sources at once (`_shortest_paths`). Each level scans the
out-edges of the frontier or the in-edges of the nodes not yet reached,
whichever are fewer, and the dependency pass walks the forward pass's
shortest-path pairs back. PageRank and HITS scatter-add over the edges in
out-CSR order one at a time (`np.add.at`) and sum left to right (`cumsum`).
Each adds in the order of its loop in `tests/oracles.py`, so all eight
measures equal those loops bit for bit.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusError, SocialGraph
from .util import left_sum, ranges

MEASURES = (
    "in_degree",
    "out_degree",
    "in_closeness",
    "out_closeness",
    "betweenness",
    "pagerank",
    "hub",
    "authority",
)

DAMPING = 0.85
TOLERANCE = 1e-10
MAX_ITER = 200
_BLOCK = 1 << 17  # width x max(n, edges) of a block: a level's scan, 1 MB per int64 array


def _block_width(n, m) -> int:
    """Sources per block: the most that keep width x max(n, m) within _BLOCK, at least one."""
    return max(1, min(n, _BLOCK // max(n, m)))


def _descending(keys, top) -> np.ndarray:
    """An order of `keys` (ints in [0, top]) from the largest down; ties in any order.

    Below 2**16 the keys are flipped into uint16, whose stable sort is a radix
    sort; wider keys take the default sort of their negation.
    """
    if top < 1 << 16:
        return np.argsort((top - keys).astype(np.uint16), kind="stable")
    return np.argsort(-keys)


def _shortest_paths(n, indptr, indices) -> tuple:
    """Brandes (2001) betweenness and closeness sums, one BFS per source, run in blocks.

    A block of sources runs its BFSs together, over flat keys `b * n + v` (the
    block's b-th source, node v). A node's queue position in source s's BFS
    is its first occurrence in the concatenated out-rows of s's frontier, the
    order of a FIFO queue visiting sorted neighbours; a block's frontier lists
    its sources' frontiers one after another, each in queue order.

    Each level scans whichever side has fewer edges, both counted exactly
    over the block: the out-edges of the frontier (top-down) or the in-edges
    of the nodes not yet reached (bottom-up; Beamer, Asanovic & Patterson,
    SC 2012). A fresh pair (u, w), u on the frontier and w unreached, is an
    edge of the shortest-path DAG. Top-down finds w's queue position as its
    first occurrence among the gathered rows. Bottom-up finds each in-edge
    u -> w with u on the frontier and keys it by where the top-down scan
    would have met it, u's row start in the concatenation plus the edge's
    place in u's row; w's queue position is the least key over its
    parents. A bottom-up level thus gives the frontier order a top-down one
    would, and either keeps a level's pairs in descending queue order of w.

    The dependency pass scatter-adds over those pairs from the last level
    back. u meets a given w at most once, so delta[u] adds its terms in
    descending queue order of w, as a stack-popping loop does; the order of
    the pairs of one w cannot change a sum. Betweenness adds the block's
    delta rows in source order. The distances and closeness sums are
    integers, and sigma is float64, exact below 2**53, so the order in which
    they are added does not matter. Below that bound the result is the
    per-source loop's, bit for bit, whatever the block width and directions.

    All index arrays are int64 and `dist` is int32 (levels are below n).
    The flat keys stay below width * n and a level's scan and queue
    positions below width * m, both at most max(_BLOCK, n, m): far inside
    either type at 24k users and 600k edges.

    Returns betweenness and, per node, the number of nodes reachable from it
    and reaching it with the sums of those distances (integers).
    """
    m = indices.size
    width = _block_width(n, m)
    out_deg = np.diff(indptr)
    in_deg = np.bincount(indices, minlength=n)
    # the in-CSR: each node's followers ascending, and each in-edge's place
    # in its follower's out-row
    in_ptr = np.concatenate(([0], np.cumsum(in_deg)))
    edge = np.argsort(indices, kind="stable")
    in_src = np.repeat(np.arange(n), out_deg)[edge]
    in_off = edge - indptr[in_src]

    unset = np.iinfo(np.int64).max
    bc = np.zeros(n)
    out_reach, out_total, in_reach, in_total = np.zeros((4, n), dtype=np.int64)
    first = np.full(width * n, unset)
    row_start = np.zeros(width * n, dtype=np.int64)
    for lo in range(0, n, width):
        sources = np.arange(lo, min(lo + width, n))
        frontier = roots = sources + n * np.arange(sources.size)
        dist = np.full(sources.size * n, -1, dtype=np.int32)
        sigma = np.zeros(dist.size)
        dist[roots] = 0
        sigma[roots] = 1.0
        unreached = sources.size * m
        dag = []
        while True:
            nodes = frontier % n
            unreached -= in_deg[nodes].sum()  # the in-edges of the nodes not yet reached
            lens = out_deg[nodes]
            ends = np.cumsum(lens)
            if ends[-1] <= unreached:
                w = indices[ranges(indptr[nodes], lens)]
                w += np.repeat(frontier - nodes, lens)
                fresh = np.flatnonzero(dist[w] < 0)
                if not fresh.size:
                    break
                u, w = np.repeat(frontier, lens)[fresh], w[fresh]
                at = np.arange(w.size)
                np.minimum.at(first, w, at)
                queue = first[w]  # increasing with w's queue position
                frontier = w[queue == at]
                first[frontier] = unset
                np.add.at(sigma, w, sigma[u])
                back = _descending(queue, w.size - 1)
                del fresh, at, queue
            else:
                row_start[frontier] = ends - lens
                todo = np.flatnonzero(dist < 0)
                nodes = todo % n
                lens = in_deg[nodes]
                e = ranges(in_ptr[nodes], lens)
                u = in_src[e]
                u += np.repeat(todo - nodes, lens)
                hit = np.flatnonzero(dist[u] == len(dag))
                if not hit.size:
                    break
                u, e, w = u[hit], e[hit], np.repeat(todo, lens)[hit]
                # the pairs of one w are adjacent, w ascending
                group = np.flatnonzero(np.diff(w, prepend=-1))
                sigma[w[group]] = np.add.reduceat(sigma[u], group)
                order = np.argsort(np.minimum.reduceat(row_start[u] + in_off[e], group))
                frontier = w[group[order]]
                order = order[::-1]
                back = ranges(group[order], np.diff(group, append=w.size)[order])
                del todo, e, hit, group, order
            dag.append((u[back], w[back]))
            del u, w, back  # a level's temporaries must not live through the next
            dist[frontier] = len(dag)
        delta = np.zeros(dist.size)
        for u, w in reversed(dag):
            np.add.at(delta, u, sigma[u] / sigma[w] * (1.0 + delta[w]))
        delta[roots] = 0.0
        for row in delta.reshape(sources.size, n):
            bc += row
        dist = np.maximum(dist, 0).reshape(sources.size, n)
        out_reach[sources] = np.count_nonzero(dist, axis=1)
        out_total[sources] = dist.sum(axis=1, dtype=np.int64)
        in_reach += np.count_nonzero(dist, axis=0)
        in_total += dist.sum(axis=0, dtype=np.int64)
    return bc, (out_reach, out_total), (in_reach, in_total)


def _spread(out, targets, values) -> np.ndarray:
    """out with each value added to its target, one at a time in the order given."""
    np.add.at(out, targets, values)
    return out


def _pagerank(n, src, dst) -> np.ndarray:
    """PageRank over edges in out-CSR order (src ascending, then dst)."""
    out_deg = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(out_deg == 0)
    ranks = np.full(n, 1.0 / n)
    for _ in range(MAX_ITER):
        base = (1.0 - DAMPING) / n + DAMPING * left_sum(ranks[dangling]) / n
        new = _spread(np.full(n, base), dst, DAMPING * ranks[src] / out_deg[src])
        residual = left_sum(np.abs(new - ranks))
        ranks = new
        if residual < TOLERANCE:
            break
    return ranks


def _unit(values) -> np.ndarray:
    """values over their L2 norm (Python's `** 0.5`), zeros when it is 0."""
    norm = left_sum(values * values) ** 0.5
    return values / norm if norm != 0.0 else np.zeros_like(values)


def _hits(n, src, dst) -> tuple:
    """Hub and authority vectors over edges in out-CSR order."""
    if not src.size:
        return np.zeros(n), np.zeros(n)
    hubs = auths = np.full(n, 1.0 / n ** 0.5)
    for _ in range(MAX_ITER):
        new_a = _unit(_spread(np.zeros(n), dst, hubs[src]))
        new_h = _unit(_spread(np.zeros(n), src, new_a[dst]))
        residual = left_sum(np.abs(new_a - auths))
        residual += left_sum(np.abs(new_h - hubs))
        auths, hubs = new_a, new_h
        if residual < TOLERANCE:
            break
    return hubs, auths


def centralities(graph: SocialGraph) -> dict:
    """Measure name -> float64 array of every user's value, by rank."""
    n = graph.n_nodes
    if not n:
        raise CorpusError("centralities require a nonempty graph")
    # every edge in out-CSR order: the order the power iterations add in
    src, dst = graph.sources(), graph.indices
    bc, (out_reach, out_total), (in_reach, in_total) = _shortest_paths(
        n, graph.indptr, dst)
    hubs, auths = _hits(n, src, dst)

    # total is 0 exactly when reach is, so dividing by max(total, 1) gives 0.0
    return {
        "in_degree": np.bincount(dst, minlength=n).astype(np.float64),
        "out_degree": np.bincount(src, minlength=n).astype(np.float64),
        "in_closeness": in_reach / np.maximum(in_total, 1),
        "out_closeness": out_reach / np.maximum(out_total, 1),
        "betweenness": bc,
        "pagerank": _pagerank(n, src, dst),
        "hub": hubs,
        "authority": auths,
    }
