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

Everything runs on the out-CSR alone. Betweenness and closeness take one
level-synchronous BFS per source, whose dependency pass walks the forward
pass's shortest-path pairs back (`_shortest_paths`). PageRank and HITS
scatter-add over the edges in out-CSR order one at a time (`np.add.at`) and
sum left to right (`cumsum`). Each adds in the order of its loop in
`tests/oracles.py`, so all eight measures equal those loops bit for bit.
"""

from __future__ import annotations

import numpy as np

from .corpus import CorpusError, SocialGraph
from .util import left_sum

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


def _shortest_paths(n, indptr, indices) -> tuple:
    """Brandes (2001) betweenness and closeness sums from one BFS per source.

    The BFS is level-synchronous on the out-CSR. A node's queue position is
    its first occurrence in the frontier's concatenated rows, the order of a
    FIFO queue visiting sorted neighbours. sigma is float64, exact below
    2**53. Each level keeps its fresh pairs (u, w), the shortest-path DAG's
    edges, in descending queue order of w, and the dependency pass
    scatter-adds over them from the last level back. u meets a given w at
    most once, so delta[u] adds its terms in descending queue order of w
    whatever order the pairs of one w take, as a stack-popping loop does:
    no in-CSR and no stable sort are needed for bit-equal sums.

    Returns betweenness and, per node, the number of nodes reachable from it
    and reaching it with the sums of those distances (integers).
    """
    unset = np.iinfo(np.int64).max
    bc = np.zeros(n)
    out_reach, out_total, in_reach, in_total = np.zeros((4, n), dtype=np.int64)
    first = np.full(n, unset)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s])
        dag = []
        while True:
            # the frontier's rows in order; a fresh pair's row from the row ends
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            ends = np.cumsum(lens)
            w = indices[np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])]
            fresh = np.flatnonzero(dist[w] < 0)
            if not fresh.size:
                break
            u, w = frontier[np.searchsorted(ends, fresh, side="right")], w[fresh]
            at = np.arange(w.size)
            np.minimum.at(first, w, at)
            queue = first[w]  # increasing with w's queue position
            frontier = w[queue == at]
            first[frontier] = unset
            dist[frontier] = len(dag) + 1
            np.add.at(sigma, w, sigma[u])
            back = np.argsort(-queue)
            dag.append((u[back], w[back]))
        delta = np.zeros(n)
        for u, w in reversed(dag):
            np.add.at(delta, u, sigma[u] / sigma[w] * (1.0 + delta[w]))
        delta[s] = 0.0
        bc += delta
        reached = dist > 0
        out_reach[s] = np.count_nonzero(reached)
        out_total[s] = dist[reached].sum()
        in_reach += reached
        in_total += np.maximum(dist, 0)
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
