"""Information-flow matrices, effective distance, and per-network distance stats.

The flow on a follow edge (i, j) aggregates over every diffusion network that
contains the edge: either the number of such news stories (shared_news) or the
sum of min(T(i,X), T(j,X)) over them (shared_frequency). Effective distance
turns flow into an edge length

    d(i, j) = 1 - ln(F_ij / sum_l F_lj)

which is >= 1 whenever F_ij > 0 and infinite on zero-flow edges.

`distance_stats` measures hop counts (geodesic distance) when it is given
no flow matrix, and effective distance over the flow matrix it is given.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .corpus import SocialGraph
from .diffusion import DiffusionNetwork
from .util import median

SHARED_NEWS = "shared_news"
SHARED_FREQUENCY = "shared_frequency"
FLOW_DEFINITIONS = (SHARED_NEWS, SHARED_FREQUENCY)


@dataclass(frozen=True)
class FlowMatrix:
    flows: dict  # (i, j) -> flow > 0, support within the social edge set
    inflow: dict  # j -> sum of flows into j

    def flow(self, i, j) -> float:
        return self.flows.get((i, j), 0.0)


@dataclass(frozen=True)
class DistanceStats:
    maximum: float
    mean: float
    median: float


def flow_matrix(graph: SocialGraph, networks, definition: str) -> FlowMatrix:
    """Aggregate edge flows over a collection of diffusion networks."""
    if definition not in FLOW_DEFINITIONS:
        raise ValueError(f"definition must be one of {FLOW_DEFINITIONS}, got {definition!r}")
    flows: dict = {}
    for net in networks:
        for edge in sorted(net.edges):
            if edge not in graph.edges:
                raise ValueError(f"network edge {edge!r} not in the social graph")
            if definition == SHARED_NEWS:
                add = 1.0
            else:
                u, v = edge
                add = float(min(net.counts[u], net.counts[v]))
            flows[edge] = flows.get(edge, 0.0) + add
    inflow: dict = {}
    for edge in sorted(flows):
        j = edge[1]
        inflow[j] = inflow.get(j, 0.0) + flows[edge]
    return FlowMatrix(flows=flows, inflow=inflow)


def effective_distance(flow: FlowMatrix, i, j) -> float:
    """Edge length from flow; infinite when the edge carries no flow."""
    f = flow.flow(i, j)
    if f <= 0.0:
        return math.inf
    return 1.0 - math.log(f / flow.inflow[j])


def _geodesic_pairs(nodes, adjacency):
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for target, d in dist.items():
            if target != source:
                yield float(d)


def _dijkstra_pairs(nodes, weighted_adjacency):
    for source in nodes:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for v, w in weighted_adjacency[u]:
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for target, d in dist.items():
            if target != source:
                yield d


def distance_stats(network: DiffusionNetwork,
                   flow: FlowMatrix | None = None) -> DistanceStats:
    """Max / mean / median over all finite ordered-pair distances in a network.

    Geodesic without `flow`, effective distance over `flow` otherwise.
    """
    nodes = network.sorted_nodes()
    adjacency = {v: [] for v in nodes}
    if flow is None:
        for u, v in sorted(network.edges):
            adjacency[u].append(v)
        values = list(_geodesic_pairs(nodes, adjacency))
    else:
        for u, v in sorted(network.edges):
            w = effective_distance(flow, u, v)
            if math.isfinite(w):
                adjacency[u].append((v, w))
        values = list(_dijkstra_pairs(nodes, adjacency))
    if not values:
        return DistanceStats(maximum=0.0, mean=0.0, median=0.0)
    return DistanceStats(
        maximum=max(values),
        mean=sum(values) / len(values),
        median=median(values),
    )
