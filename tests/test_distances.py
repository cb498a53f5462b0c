import math

import numpy as np
import pytest

from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import build_all_networks, build_network
from newsnet.distances import (SHARED_FREQUENCY, SHARED_NEWS, distance_stats,
                               effective_distance, flow_matrix)

from oracles import brute_flow, dense_distances, random_corpus


def _networks(graph, table):
    return [net for _, net in sorted(build_all_networks(graph, table).items())]


def test_shared_news_counts_networks():
    graph = SocialGraph.from_edges([("u1", "u2"), ("u2", "u3")])
    records = {(f"n{i}", "u1"): 1 for i in range(3)}
    records.update({(f"n{i}", "u2"): 1 for i in range(3)})
    records[("n9", "u3")] = 1
    labels = {f"n{i}": "fake" for i in range(3)}
    labels["n9"] = "true"
    table = EngagementTable.from_records(records, labels)
    flow = flow_matrix(graph, _networks(graph, table), SHARED_NEWS)
    assert flow.flow("u1", "u2") == 3.0
    assert flow.flow("u2", "u3") == 0.0  # never co-spread


def test_shared_frequency_min_rule():
    graph = SocialGraph.from_edges([("u1", "u2")])
    table = EngagementTable.from_records(
        {("n1", "u1"): 2, ("n1", "u2"): 5}, {"n1": "fake"})
    flow = flow_matrix(graph, _networks(graph, table), SHARED_FREQUENCY)
    assert flow.flow("u1", "u2") == 2.0


def test_flow_matches_brute_force():
    for seed in range(10):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        for definition in (SHARED_NEWS, SHARED_FREQUENCY):
            flow = flow_matrix(graph, nets, definition)
            assert flow.flows == brute_flow(graph, nets, definition), (seed, definition)


def test_effective_distance_values():
    graph = SocialGraph.from_edges([("a", "j"), ("b", "j"), ("c", "k")])
    table = EngagementTable.from_records(
        {("n1", "a"): 1, ("n1", "j"): 1, ("n2", "b"): 1, ("n2", "j"): 1,
         ("n3", "c"): 1, ("n3", "k"): 1},
        {"n1": "fake", "n2": "true", "n3": "true"})
    flow = flow_matrix(graph, _networks(graph, table), SHARED_NEWS)
    # (c, k) carries all inflow to k
    assert effective_distance(flow, "c", "k") == pytest.approx(1.0, abs=1e-12)
    # (a, j) carries half the inflow to j
    assert effective_distance(flow, "a", "j") == pytest.approx(1.0 + math.log(2.0),
                                                               abs=1e-12)
    assert effective_distance(flow, "x", "y") == math.inf


def test_effective_distance_ratio_point_one():
    graph = SocialGraph.from_edges([(f"s{i}", "hub") for i in range(10)])
    records = {}
    labels = {}
    for i in range(10):
        news = f"n{i}"
        labels[news] = "fake" if i % 2 else "true"
        records[(news, f"s{i}")] = 1
        records[(news, "hub")] = 1
    table = EngagementTable.from_records(records, labels)
    flow = flow_matrix(graph, _networks(graph, table), SHARED_NEWS)
    assert effective_distance(flow, "s0", "hub") == pytest.approx(1.0 - math.log(0.1),
                                                                  abs=1e-12)


def test_effective_distance_at_least_one():
    for seed in range(10):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        for definition in (SHARED_NEWS, SHARED_FREQUENCY):
            flow = flow_matrix(graph, nets, definition)
            for (i, j) in flow.flows:
                assert effective_distance(flow, i, j) >= 1.0 - 1e-12


def test_geodesic_stats_on_path():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c")])
    table = EngagementTable.from_records(
        {("n1", "a"): 1, ("n1", "b"): 1, ("n1", "c"): 1}, {"n1": "fake"})
    net = build_network(graph, table, "n1")
    stats = distance_stats(net)
    # finite ordered pairs: a-b=1, b-c=1, a-c=2
    assert stats.maximum == 2.0
    assert stats.mean == pytest.approx(4 / 3)
    assert stats.median == 1.0


def test_single_node_stats_zero():
    graph = SocialGraph.from_edges([("a", "b")])
    table = EngagementTable.from_records({("n1", "a"): 1}, {"n1": "fake"})
    net = build_network(graph, table, "n1")
    stats = distance_stats(net)
    assert (stats.maximum, stats.mean, stats.median) == (0.0, 0.0, 0.0)


def test_cycle_uniform_flow_effective_equals_geodesic():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    table = EngagementTable.from_records(
        {("n1", "a"): 1, ("n1", "b"): 1, ("n1", "c"): 1}, {"n1": "fake"})
    nets = _networks(graph, table)
    flow = flow_matrix(graph, nets, SHARED_NEWS)
    net = nets[0]
    eff = distance_stats(net, flow)
    geo = distance_stats(net)
    assert eff.maximum == pytest.approx(geo.maximum, abs=1e-12)
    assert eff.mean == pytest.approx(geo.mean, abs=1e-12)
    assert eff.median == pytest.approx(geo.median, abs=1e-12)


def test_geodesic_stats_match_floyd_warshall():
    for seed in range(8):
        graph, table = random_corpus(seed)
        for net in build_all_networks(graph, table).values():
            nodes = net.sorted_nodes()
            d = dense_distances(nodes, net.edges)
            finite = d[np.isfinite(d) & (d > 0)]
            stats = distance_stats(net)
            if finite.size == 0:
                assert (stats.maximum, stats.mean, stats.median) == (0.0, 0.0, 0.0)
            else:
                assert stats.maximum == pytest.approx(finite.max(), abs=1e-9)
                assert stats.mean == pytest.approx(finite.mean(), abs=1e-9)
                assert stats.median == pytest.approx(np.median(finite), abs=1e-9)
                assert finite.min() <= stats.median <= stats.maximum


def test_effective_stats_match_floyd_warshall():
    for seed in range(6):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        flow = flow_matrix(graph, nets, SHARED_NEWS)
        for net in nets:
            weights = {(u, v): effective_distance(flow, u, v) for u, v in net.edges}
            nodes = net.sorted_nodes()
            d = dense_distances(nodes, net.edges, weights)
            off_diag = ~np.eye(len(nodes), dtype=bool)
            finite = d[np.isfinite(d) & off_diag]
            stats = distance_stats(net, flow)
            if finite.size == 0:
                assert stats.maximum == 0.0
            else:
                assert stats.maximum == pytest.approx(finite.max(), abs=1e-9)
                assert stats.mean == pytest.approx(finite.mean(), abs=1e-9)
