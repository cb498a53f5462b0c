"""Per-news diffusion networks: induced subgraphs of the follow graph.

The diffusion network of a news story contains exactly the users that spread
it, and every follow edge of the social graph whose endpoints both spread it.
Subsampling (by nodes or by edges) emulates partially observed propagation.

A network is held as int arrays over the follow graph's ranks: `ranks` lists
the spreaders' ranks ascending (rank order is sorted-id order), `counts` their
spreading counts in the same order, and `edges` the (follower, followee)
pairs as positions into `ranks`, sorted. A node's position is thus its index
in the sorted ids, and the sorted position pairs are the sorted id pairs, so
every loop over sorted ids sees the same order over positions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .corpus import EngagementTable, SocialGraph, csr_rows
from .util import find

SUBSAMPLE_MODES = ("nodes", "edges")


@dataclass(frozen=True, eq=False)
class DiffusionNetwork:
    news_id: str
    label: str
    ranks: np.ndarray  # (n,) int64 graph ranks of the spreaders, ascending
    counts: np.ndarray  # (n,) int64 spreading count of each spreader
    edges: np.ndarray  # (m, 2) int64 (follower, followee) positions, sorted

    @property
    def n_nodes(self) -> int:
        return self.ranks.size

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_network(graph: SocialGraph, table: EngagementTable, news_id) -> DiffusionNetwork:
    """Induce the diffusion network of one news story from the social graph."""
    if news_id not in table.labels:
        raise KeyError(f"unknown news id {news_id!r}")
    spreaders = table.spreaders(news_id)
    users = sorted(spreaders)
    ranks = graph.ranks(users)
    if (ranks < 0).any():
        user = users[int(np.argmax(ranks < 0))]
        raise ValueError(f"spreader {user!r} of news {news_id!r} is not in the social graph")
    # each spreader's CSR row, kept where the followee spreads the news too
    src, dst = csr_rows(ranks, (graph.indptr, graph.indices))
    at, kept = find(ranks, dst)
    return DiffusionNetwork(
        news_id=news_id,
        label=table.label(news_id),
        ranks=ranks,
        counts=np.array([spreaders[user] for user in users], dtype=np.int64),
        edges=np.column_stack([np.searchsorted(ranks, src[kept]), at[kept]]),
    )


def build_all_networks(graph: SocialGraph, table: EngagementTable) -> dict:
    return {news: build_network(graph, table, news) for news in table.news_ids()}


def subsample(network: DiffusionNetwork, mode: str, proportion: float, seed: int) -> DiffusionNetwork:
    """Keep ceil(p * n) uniformly chosen nodes (edges re-induced) or edges.

    Deterministic for a given seed. Sampling is without replacement over the
    sorted population, drawn as indices: `random.sample` picks the same
    indices from any population of the same length, so these are the nodes
    or edges it picks from the sorted ids or id pairs.
    """
    if mode not in SUBSAMPLE_MODES:
        raise ValueError(f"mode must be one of {SUBSAMPLE_MODES}, got {mode!r}")
    if not 0.0 <= proportion <= 1.0:
        raise ValueError(f"proportion must be in [0, 1], got {proportion}")
    rng = random.Random(seed)
    if mode == "nodes":
        n = network.n_nodes
        kept = np.zeros(n, dtype=bool)
        kept[rng.sample(range(n), math.ceil(proportion * n))] = True
        position = np.cumsum(kept) - 1
        edges = network.edges[kept[network.edges].all(axis=1)]
        return DiffusionNetwork(network.news_id, network.label, network.ranks[kept],
                                network.counts[kept], position[edges])
    m = network.n_edges
    chosen = np.sort(np.array(rng.sample(range(m), math.ceil(proportion * m)),
                              dtype=np.int64))
    return DiffusionNetwork(network.news_id, network.label, network.ranks,
                            network.counts, network.edges[chosen])
