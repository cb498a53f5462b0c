"""Eight node-influence measures on the directed follow graph.

Computed once on the full social graph; per-network features later restrict
the score maps to a network's spreader set. Conventions:

  - degrees are raw edge counts
  - closeness(v) = (reachable count) / (sum of distances), over the nodes
    actually reachable from / to v; 0 when nothing is reachable
  - betweenness is the unnormalized Brandes accumulation over ordered pairs;
    shortest-path counts are float64, exact below 2**53
  - PageRank: damping 0.85, uniform teleport, dangling mass redistributed,
    power iteration until L1 residual < 1e-10 (max 200 iterations); sums to 1
  - hub/authority: mutually reinforcing power iteration, L2-normalized each
    step, same stopping rule; zero vectors on an edgeless graph
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SocialGraph

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


@dataclass(frozen=True)
class CentralityScores:
    scores: dict  # measure name -> {node: value}

    def of(self, measure: str) -> dict:
        return self.scores[measure]


def _csr(rows, cols, n) -> tuple:
    """CSR (indptr, indices) of the pairs (rows[i], cols[i]), each row ascending."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def _rows(frontier, csr) -> tuple:
    """The frontier's CSR rows concatenated in frontier order: (row, entry) pairs."""
    indptr, indices = csr
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return np.repeat(frontier, lens), indices[offsets + np.arange(offsets.size)]


def _shortest_paths(n, out_csr, in_csr) -> tuple:
    """Brandes (2001) betweenness and closeness sums from one BFS per source.

    The BFS is level-synchronous on the out-CSR. A node's queue position is
    its first occurrence in the frontier's concatenated rows, which is the
    order a FIFO queue visiting sorted neighbours gives. sigma is float64,
    exact below 2**53. The dependency pass walks the levels in reverse and
    gathers each level's predecessors from the in-CSR rows of its nodes in
    reverse queue order, then adds the terms with an unbuffered scatter-add:
    every delta[u] sums its terms in the order a stack-popping loop does, so
    the result equals that loop's bit for bit.

    Returns betweenness and, per node, the number of nodes reachable from it
    and reaching it with the sums of those distances (integers).
    """
    unset = np.iinfo(np.int64).max
    bc = np.zeros(n)
    out_reach = np.zeros(n, dtype=np.int64)
    out_total = np.zeros(n, dtype=np.int64)
    in_reach = np.zeros(n, dtype=np.int64)
    in_total = np.zeros(n, dtype=np.int64)
    first = np.full(n, unset)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        levels = [np.array([s])]
        while True:
            u, w = _rows(levels[-1], out_csr)
            fresh = dist[w] < 0
            u, w = u[fresh], w[fresh]
            if not w.size:
                break
            at = np.arange(w.size)
            np.minimum.at(first, w, at)
            level = w[first[w] == at]
            first[level] = unset
            dist[level] = len(levels)
            np.add.at(sigma, w, sigma[u])
            levels.append(level)
        delta = np.zeros(n)
        for d in range(len(levels) - 1, 0, -1):
            w, u = _rows(levels[d][::-1], in_csr)
            pred = dist[u] == d - 1
            u, w = u[pred], w[pred]
            np.add.at(delta, u, sigma[u] / sigma[w] * (1.0 + delta[w]))
        delta[s] = 0.0
        bc += delta
        reached = dist > 0
        out_reach[s] = np.count_nonzero(reached)
        out_total[s] = dist[reached].sum()
        in_reach += reached
        in_total += np.maximum(dist, 0)
    return bc, (out_reach, out_total), (in_reach, in_total)


def _pagerank(nodes, succ) -> dict:
    n = len(nodes)
    ranks = {v: 1.0 / n for v in nodes}
    out_deg = {v: len(succ[v]) for v in nodes}
    dangling = [v for v in nodes if out_deg[v] == 0]
    for _ in range(MAX_ITER):
        dangling_mass = sum(ranks[v] for v in dangling)
        base = (1.0 - DAMPING) / n + DAMPING * dangling_mass / n
        new = {v: base for v in nodes}
        for u in nodes:
            if out_deg[u]:
                share = DAMPING * ranks[u] / out_deg[u]
                for v in succ[u]:
                    new[v] += share
        residual = sum(abs(new[v] - ranks[v]) for v in nodes)
        ranks = new
        if residual < TOLERANCE:
            break
    return ranks


def _hits(nodes, succ, preds) -> tuple:
    n = len(nodes)
    if not any(succ[v] for v in nodes):
        zeros = {v: 0.0 for v in nodes}
        return dict(zeros), dict(zeros)
    norm0 = n ** 0.5
    hubs = {v: 1.0 / norm0 for v in nodes}
    auths = {v: 1.0 / norm0 for v in nodes}
    for _ in range(MAX_ITER):
        new_a = {v: sum(hubs[u] for u in preds[v]) for v in nodes}
        norm = sum(x * x for x in new_a.values()) ** 0.5
        if norm == 0.0:
            new_a = {v: 0.0 for v in nodes}
        else:
            new_a = {v: x / norm for v, x in new_a.items()}
        new_h = {v: sum(new_a[w] for w in succ[v]) for v in nodes}
        norm = sum(x * x for x in new_h.values()) ** 0.5
        if norm == 0.0:
            new_h = {v: 0.0 for v in nodes}
        else:
            new_h = {v: x / norm for v, x in new_h.items()}
        residual = sum(abs(new_a[v] - auths[v]) for v in nodes)
        residual += sum(abs(new_h[v] - hubs[v]) for v in nodes)
        auths, hubs = new_a, new_h
        if residual < TOLERANCE:
            break
    return hubs, auths


def centralities(graph: SocialGraph) -> CentralityScores:
    if not graph.nodes:
        raise ValueError("centralities require a nonempty graph")
    nodes = graph.sorted_nodes()
    succ = {v: sorted(graph.out_neighbors[v]) for v in nodes}
    preds = {v: sorted(graph.in_neighbors[v]) for v in nodes}
    index = {v: i for i, v in enumerate(nodes)}
    pairs = np.array([(index[u], index[v]) for u, v in graph.edges],
                     dtype=np.int64).reshape(-1, 2)
    src, dst = pairs[:, 0], pairs[:, 1]
    n = len(nodes)
    bc, (out_reach, out_total), (in_reach, in_total) = _shortest_paths(
        n, _csr(src, dst, n), _csr(dst, src, n))
    hubs, auths = _hits(nodes, succ, preds)

    def by_node(values) -> dict:
        return dict(zip(nodes, values.tolist()))

    # total is 0 exactly when reach is, so dividing by max(total, 1) gives 0.0
    return CentralityScores(scores={
        "in_degree": {v: float(len(preds[v])) for v in nodes},
        "out_degree": {v: float(len(succ[v])) for v in nodes},
        "in_closeness": by_node(in_reach / np.maximum(in_total, 1)),
        "out_closeness": by_node(out_reach / np.maximum(out_total, 1)),
        "betweenness": by_node(bc),
        "pagerank": _pagerank(nodes, succ),
        "hub": hubs,
        "authority": auths,
    })
