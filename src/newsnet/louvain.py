"""Louvain community detection on weighted undirected graphs.

Greedy modularity optimization: seeded node sweeps move nodes to the
neighboring community with the largest modularity gain, then the graph is
aggregated (communities become supernodes, internal weight becomes a
self-loop) and the process repeats. Both loops stop once the modularity gain
drops to <= 1e-7. Deterministic for a given seed: nodes are sorted before the
seeded shuffle, and of the candidate communities tied at the best gain the
smallest wins.

Each node keeps the weights from it into every neighbouring community, a
dict `nc[i]` that starts as a copy of its adjacency (every node starts
alone), so a visit reads them instead of summing its neighbours' weights
again (Blondel et al., J. Stat. Mech. 2008). A move of node i from community
a to b takes each edge weight w of i off nc[j][a], dropping the entry at 0,
and adds it to nc[j][b], for every neighbour j. The weights are ints, so the
kept sums equal the rebuilt ones exactly; the gains are the same float
expressions of them; and the tie rule (keep the old community unless it is
strictly beaten, else take the smallest tied one) does not depend on the
order the candidates come in. So the partitions equal those of the
rebuilding sweep (`RebuildSweepLevel` in `tests/oracles.py`).

Directed follow edges are symmetrized first (weight 1 per unordered connected
pair, reciprocal pairs also weight 1), as rank or position pairs: one sort of
the pair keys, with no tuple per edge.

The result is each node's community alone: the feature vector reads
community counts at two scopes, the whole follow graph
(`global_communities`, an int array over the graph ranks) and one diffusion
network (`local_communities`), and never the modularity of the final
partition. Nodes are shuffled and numbered in sorted-id order, so a relabel
that keeps the ids' order keeps every partition, and one that scrambles it
may change the community counts (by whole communities).
"""

from __future__ import annotations

import random

import numpy as np

from .util import derive_seed, distinct

MIN_GAIN = 1e-7


class _Level:
    """One aggregation level: adjacency with self-loops, community bookkeeping.

    Edge i joins nodes lows[i] and highs[i] with int weight weights[i], a
    count of symmetrized pairs, so the degrees `k`, self-loop weights,
    community totals and kept neighbour-community weights `nc` are exact int
    sums at any scale and in any order.
    """

    def __init__(self, n, lows, highs, weights):
        self.n = n
        self.adj = [dict() for _ in range(n)]
        self.self_w = [0] * n
        self.k = k = [0] * n
        m = 0
        for u, v, w in zip(lows, highs, weights):
            m += w
            k[u] += w
            k[v] += w
            if u == v:
                self.self_w[u] += w
            else:
                self.adj[u][v] = self.adj[u].get(v, 0) + w
                self.adj[v][u] = self.adj[v].get(u, 0) + w
        self.m = m
        self.com = list(range(n))
        self.nc = [dict(weights) for weights in self.adj]  # every node starts alone
        self.com_tot = list(self.k)
        self.com_in = list(self.self_w)

    def _modularity(self) -> float:
        if not self.m:
            return 0.0
        q = 0.0
        for c in dict.fromkeys(self.com):
            q += self.com_in[c] / self.m - (self.com_tot[c] / (2.0 * self.m)) ** 2
        return q

    def sweep(self, order) -> bool:
        """One pass over all nodes; returns True if any node moved."""
        moved = False
        com, adj, nc, k, self_w = self.com, self.adj, self.nc, self.k, self.self_w
        com_tot, com_in = self.com_tot, self.com_in
        two_m = 2.0 * self.m
        for i in order:
            old, k_i, neigh = com[i], k[i], nc[i]
            w_old = neigh.get(old, 0)
            # detach i before evaluating gains
            com_tot[old] -= k_i
            com_in[old] -= w_old + self_w[i]
            best_c = old
            best_gain = w_old - k_i * com_tot[old] / two_m
            for c, w in neigh.items():  # old ties only with itself
                gain = w - k_i * com_tot[c] / two_m
                if gain > best_gain or (gain == best_gain and old != best_c > c):
                    best_gain, best_c = gain, c
            com[i] = best_c
            com_tot[best_c] += k_i
            com_in[best_c] += neigh.get(best_c, 0) + self_w[i]
            if best_c != old:
                moved = True
                for j, w in adj[i].items():
                    weights = nc[j]
                    left = weights[old] - w
                    if left:
                        weights[old] = left
                    else:
                        del weights[old]
                    weights[best_c] = weights.get(best_c, 0) + w
        return moved

    def optimize(self, rng) -> float:
        """Sweep until no node moves or a sweep gains <= MIN_GAIN; the final modularity."""
        if not self.m:
            return 0.0  # edgeless: all singletons
        order = list(range(self.n))
        rng.shuffle(order)
        q = self._modularity()
        while self.sweep(order):
            last, q = q, self._modularity()
            if q - last <= MIN_GAIN:
                break
        return q

    def partition(self) -> list:
        """Community of each node, renumbered to 0..k-1 by node order."""
        relabel: dict = {}
        out = []
        for c in self.com:
            if c not in relabel:
                relabel[c] = len(relabel)
            out.append(relabel[c])
        return out

    def aggregated_edges(self, partition) -> tuple:
        """The edges between communities: (lows, highs, weights), pairs sorted."""
        edges: dict = {}
        for i in range(self.n):
            ci = partition[i]
            if self.self_w[i]:
                key = (ci, ci)
                edges[key] = edges.get(key, 0) + self.self_w[i]
            for j, w in self.adj[i].items():
                if i < j:
                    a, b = partition[i], partition[j]
                    key = (a, b) if a <= b else (b, a)
                    edges[key] = edges.get(key, 0) + w
        pairs = sorted(edges)
        return [a for a, _ in pairs], [b for _, b in pairs], [edges[pair] for pair in pairs]


def communities(n, lows, highs, seed: int) -> list:
    """Louvain over the nodes 0..n-1 and the unit edges (lows[i], highs[i]): each
    node's community, numbered by first appearance; edgeless nodes stay singletons."""
    if not n:
        raise ValueError("louvain requires a nonempty node set")
    assignment = list(range(n))  # original node -> community label
    level_n = n
    best_q = None
    level_no = 0
    weights = [1] * len(lows)
    while True:
        level = _Level(level_n, lows, highs, weights)
        q = level.optimize(random.Random(derive_seed(seed, "louvain", level_no)))
        part = level.partition()
        assignment = [part[c] for c in assignment]
        if best_q is not None and q - best_q <= MIN_GAIN:
            break
        best_q = q
        n_coms = max(part) + 1
        if n_coms == level_n:  # nothing merged; a further level cannot improve
            break
        lows, highs, weights = level.aggregated_edges(part)
        level_n = n_coms
        level_no += 1
    # every level numbers by first appearance, and so does their composition
    return assignment


def _pairs(lows, highs, n) -> tuple:
    """The distinct unordered pairs of the edges (lows[i], highs[i]), sorted, as lists."""
    pairs = distinct(np.minimum(lows, highs) * n + np.maximum(lows, highs))
    return tuple(side.tolist() for side in np.divmod(pairs, max(n, 1)))


def global_communities(graph, seed: int) -> np.ndarray:
    """Louvain over the follow graph: every rank's community, as an int array.

    `_Level` reads the CSR's edges symmetrized as rank pairs in ascending
    order, with no pair tuples and no node index. Rank order is sorted-id
    order, so the seeded shuffle and the relabelling are those of Louvain
    over the ids and their symmetrized pairs (`louvain` in `tests/oracles.py`).
    """
    n = graph.n_nodes
    lows, highs = _pairs(graph.sources(), graph.indices, n)
    return np.array(communities(n, lows, highs, seed), dtype=np.int64)


def local_communities(network, seed: int) -> int:
    """The number of Louvain communities of one nonempty diffusion network.

    Runs over the network's positions, which are in sorted-id order, so the
    count is that of Louvain over the ids and their symmetrized pairs.
    """
    n = network.n_nodes
    lows, highs = _pairs(network.edges[:, 0], network.edges[:, 1], n)
    return len(set(communities(n, lows, highs, seed)))
