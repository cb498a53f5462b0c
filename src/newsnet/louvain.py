"""Louvain community detection on weighted undirected graphs.

Greedy modularity optimization: seeded node sweeps move nodes to the
neighboring community with the largest modularity gain, then the graph is
aggregated (communities become supernodes, internal weight becomes a
self-loop) and the process repeats. Both loops stop once the modularity gain
drops to <= 1e-7. Deterministic for a given seed: nodes are sorted before the
seeded shuffle, and of the candidate communities tied at the best gain the
smallest wins.

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

    Edge i joins nodes lows[i] and highs[i] with weight weights[i]. Every
    weight is a sum of 1.0s, an integer below 2**53, so the degrees `k` are
    exact sums whatever order their edges are added in.
    """

    def __init__(self, n, lows, highs, weights):
        self.n = n
        self.adj = [dict() for _ in range(n)]
        self.self_w = [0.0] * n
        self.k = k = [0.0] * n
        m = 0.0
        for u, v, w in zip(lows, highs, weights):
            m += w
            k[u] += w
            k[v] += w
            if u == v:
                self.self_w[u] += w
            else:
                self.adj[u][v] = self.adj[u].get(v, 0.0) + w
                self.adj[v][u] = self.adj[v].get(u, 0.0) + w
        self.m = m
        self.com = list(range(n))
        self.com_tot = list(self.k)
        self.com_in = list(self.self_w)

    def _modularity(self) -> float:
        if self.m == 0.0:
            return 0.0
        q = 0.0
        seen = set()
        for c in self.com:
            if c in seen:
                continue
            seen.add(c)
            q += self.com_in[c] / self.m - (self.com_tot[c] / (2.0 * self.m)) ** 2
        return q

    def sweep(self, order) -> bool:
        """One pass over all nodes; returns True if any node moved."""
        moved = False
        com, adj, k, self_w = self.com, self.adj, self.k, self.self_w
        com_tot, com_in = self.com_tot, self.com_in
        two_m = 2.0 * self.m
        for i in order:
            old, k_i = com[i], k[i]
            neigh = {old: 0.0}
            for j, w in adj[i].items():
                neigh[com[j]] = neigh.get(com[j], 0.0) + w
            # detach i before evaluating gains
            com_tot[old] -= k_i
            com_in[old] -= neigh[old] + self_w[i]
            best_c = old
            best_gain = neigh[old] - k_i * com_tot[old] / two_m
            for c, w in neigh.items():  # old comes first and ties only with itself
                gain = w - k_i * com_tot[c] / two_m
                if gain > best_gain or (gain == best_gain and old != best_c > c):
                    best_gain, best_c = gain, c
            com[i] = best_c
            com_tot[best_c] += k_i
            com_in[best_c] += neigh[best_c] + self_w[i]
            moved = moved or best_c != old
        return moved

    def optimize(self, rng) -> None:
        if self.m == 0.0:
            return  # edgeless: all singletons, modularity 0
        order = list(range(self.n))
        rng.shuffle(order)
        current = self._modularity()
        while self.sweep(order):
            new = self._modularity()
            if new - current <= MIN_GAIN:
                break
            current = new

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
                edges[key] = edges.get(key, 0.0) + self.self_w[i]
            for j, w in self.adj[i].items():
                if i < j:
                    a, b = partition[i], partition[j]
                    key = (a, b) if a <= b else (b, a)
                    edges[key] = edges.get(key, 0.0) + w
        pairs = sorted(edges)
        return [a for a, _ in pairs], [b for _, b in pairs], [edges[pair] for pair in pairs]


def communities(n, lows, highs, weights, seed: int) -> list:
    """Louvain over the nodes 0..n-1: each node's community, numbered by first
    appearance over the nodes; nodes without edges end up as singletons."""
    if not n:
        raise ValueError("louvain requires a nonempty node set")
    assignment = list(range(n))  # original node -> community label
    level_n = n
    best_q = None
    level_no = 0
    while True:
        level = _Level(level_n, lows, highs, weights)
        level.optimize(random.Random(derive_seed(seed, "louvain", level_no)))
        part = level.partition()
        assignment = [part[c] for c in assignment]
        q = level._modularity()
        if best_q is not None and q - best_q <= MIN_GAIN:
            break
        best_q = q
        n_coms = max(part) + 1
        if n_coms == level_n:  # nothing merged; a further level cannot improve
            break
        lows, highs, weights = level.aggregated_edges(part)
        level_n = n_coms
        level_no += 1
    # canonical community ids: first appearance over the nodes
    relabel: dict = {}
    return [relabel.setdefault(c, len(relabel)) for c in assignment]


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
    return np.array(communities(n, lows, highs, [1.0] * len(lows), seed), dtype=np.int64)


def local_communities(network, seed: int) -> int:
    """The number of Louvain communities of one nonempty diffusion network.

    Runs over the network's positions, which are in sorted-id order, so the
    count is that of Louvain over the ids and their symmetrized pairs.
    """
    n = network.n_nodes
    lows, highs = _pairs(network.edges[:, 0], network.edges[:, 1], n)
    return len(set(communities(n, lows, highs, [1.0] * len(lows), seed)))
