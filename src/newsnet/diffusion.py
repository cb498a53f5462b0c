"""Per-news diffusion networks: induced subgraphs of the follow graph.

The diffusion network of a news story contains exactly the users that spread
it, and every follow edge of the social graph whose endpoints both spread it.
Subsampling (by nodes or by edges) emulates partially observed propagation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .corpus import EngagementTable, SocialGraph, csr_rows

SUBSAMPLE_MODES = ("nodes", "edges")


@dataclass(frozen=True)
class DiffusionNetwork:
    news_id: str
    label: str
    nodes: frozenset
    edges: frozenset
    counts: dict  # user_id -> spreading count for this news

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_nodes(self) -> list:
        return sorted(self.nodes)


def build_network(graph: SocialGraph, table: EngagementTable, news_id) -> DiffusionNetwork:
    """Induce the diffusion network of one news story from the social graph."""
    if news_id not in table.labels:
        raise KeyError(f"unknown news id {news_id!r}")
    counts = dict(table.spreaders(news_id))
    spreaders = frozenset(counts)
    # each spreader's CSR row, kept where the followee spreads the news too
    ranks = np.array(sorted(graph.ranks(counts).values()), dtype=np.int64)
    src, dst = csr_rows(ranks, (graph.indptr, graph.indices))
    kept = np.isin(dst, ranks)
    users = graph.users
    edges = [(users[u], users[v]) for u, v in zip(src[kept].tolist(), dst[kept].tolist())]
    return DiffusionNetwork(
        news_id=news_id,
        label=table.label(news_id),
        nodes=spreaders,
        edges=frozenset(edges),
        counts=counts,
    )


def build_all_networks(graph: SocialGraph, table: EngagementTable) -> dict:
    return {news: build_network(graph, table, news) for news in table.news_ids()}


def subsample(network: DiffusionNetwork, mode: str, proportion: float, seed: int) -> DiffusionNetwork:
    """Keep ceil(p * n) uniformly chosen nodes (edges re-induced) or edges.

    Deterministic for a given seed; sampling is without replacement over the
    sorted population so results do not depend on set iteration order.
    """
    if mode not in SUBSAMPLE_MODES:
        raise ValueError(f"mode must be one of {SUBSAMPLE_MODES}, got {mode!r}")
    if not 0.0 <= proportion <= 1.0:
        raise ValueError(f"proportion must be in [0, 1], got {proportion}")
    rng = random.Random(seed)
    if mode == "nodes":
        population = network.sorted_nodes()
        k = math.ceil(proportion * len(population))
        kept = frozenset(rng.sample(population, k))
        edges = frozenset((u, v) for u, v in network.edges if u in kept and v in kept)
        counts = {u: network.counts[u] for u in kept}
        return DiffusionNetwork(network.news_id, network.label, kept, edges, counts)
    population = sorted(network.edges)
    k = math.ceil(proportion * len(population))
    kept_edges = frozenset(rng.sample(population, k))
    return DiffusionNetwork(network.news_id, network.label, network.nodes,
                            kept_edges, dict(network.counts))
