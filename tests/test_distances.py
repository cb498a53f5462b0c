import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet import distances
from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import build_all_networks, build_network, subsample
from newsnet.distances import (FLOW_DEFINITIONS, SHARED_FREQUENCY, SHARED_NEWS,
                               distance_stats, flow_matrix)
from newsnet.features import FeatureExtractor, NodeTable
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate
from newsnet.util import derive_seed

from oracles import (IdNetwork, brute_flow, dense_distances, effective_distance, flow_lengths,
                     graph_with_users, id_network, python_distance_stats, random_corpus,
                     rank_network)
from oracles import flow_matrix as dict_flow_matrix

BENCH = Path(__file__).resolve().parents[1] / "bench"

def _networks(graph, table):
    return [net for _, net in sorted(build_all_networks(graph, table).items())]


def _ids(graph, nets):
    return [id_network(graph.users, net) for net in nets]


def _table(nets):
    return NodeTable({net.news_id: net for net in nets})


def _by_network(table, lengths) -> dict:
    """{news: the lengths of its network's edges}, sliced from the table's edge order."""
    return dict(zip(table.order, np.split(lengths, np.cumsum(table.n_edges))))


def _oracle_lengths(graph, net, slow) -> np.ndarray:
    """The dict oracle's length of each of the network's edges; inf without flow."""
    users = graph.users
    return np.array([effective_distance(slow, users[net.ranks[u]], users[net.ranks[v]])
                     for u, v in net.edges.tolist()], dtype=np.float64)


class Flow:
    """The package's lengths over `nets` and the dict oracle's flows over their ids."""

    def __init__(self, graph, nets, definition):
        self.users = graph.users
        self.table = _table(nets)
        self.fast = flow_matrix(graph, self.table)[definition]
        self.slow = dict_flow_matrix(_ids(graph, nets), definition)

    def flow(self, i, j):
        assert flow_lengths(self.users, self.table, self.fast) == self.slow.lengths
        return self.slow.flow(i, j)

    def length(self, i, j):
        fast = flow_lengths(self.users, self.table, self.fast)
        slow = effective_distance(self.slow, i, j)
        assert fast.get((i, j), math.inf) == slow
        return slow


def _network(graph, nodes, edges, news_id="n", label="fake", counts=None):
    counts = counts or {v: 1 for v in nodes}
    return rank_network(graph.users, IdNetwork(news_id, label, frozenset(nodes),
                                               frozenset(edges), counts))


def test_flow_matrix_rejects_an_edge_outside_the_graph():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c")])
    first = _network(graph, "abc", {("a", "b")}, "n1")
    for bad in (("b", "a"), ("c", "a")):
        second = _network(graph, "abc", {("a", "b"), ("b", "c"), bad}, "n2", "true")
        with pytest.raises(ValueError, match=re.escape(f"network edge {bad!r} not in")):
            flow_matrix(graph, _table([first, second]))


def test_shared_news_counts_networks():
    graph = SocialGraph.from_edges([("u1", "u2"), ("u2", "u3")])
    records = {(f"n{i}", "u1"): 1 for i in range(3)}
    records.update({(f"n{i}", "u2"): 1 for i in range(3)})
    records[("n9", "u3")] = 1
    labels = {f"n{i}": "fake" for i in range(3)}
    labels["n9"] = "true"
    table = EngagementTable.from_records(graph, records, labels)
    flow = Flow(graph, _networks(graph, table), SHARED_NEWS)
    assert flow.flow("u1", "u2") == 3.0
    assert flow.flow("u2", "u3") == 0.0  # never co-spread
    assert flow.length("u2", "u3") == math.inf


def test_shared_frequency_min_rule():
    graph = SocialGraph.from_edges([("u1", "u2")])
    table = EngagementTable.from_records(
        graph, {("n1", "u1"): 2, ("n1", "u2"): 5}, {"n1": "fake"})
    flow = Flow(graph, _networks(graph, table), SHARED_FREQUENCY)
    assert flow.flow("u1", "u2") == 2.0


def test_flow_matches_brute_force():
    for seed in range(10):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        for definition in (SHARED_NEWS, SHARED_FREQUENCY):
            flow = Flow(graph, nets, definition)
            assert flow.slow.flows == brute_flow(graph, _ids(graph, nets), definition), \
                (seed, definition)
            assert flow_lengths(graph.users, flow.table, flow.fast) == flow.slow.lengths


def test_effective_distance_values():
    graph = SocialGraph.from_edges([("a", "j"), ("b", "j"), ("c", "k")])
    table = EngagementTable.from_records(
        graph, {("n1", "a"): 1, ("n1", "j"): 1, ("n2", "b"): 1, ("n2", "j"): 1,
                ("n3", "c"): 1, ("n3", "k"): 1},
        {"n1": "fake", "n2": "true", "n3": "true"})
    flow = Flow(graph, _networks(graph, table), SHARED_NEWS)
    # (c, k) carries all inflow to k
    assert flow.length("c", "k") == pytest.approx(1.0, abs=1e-12)
    # (a, j) carries half the inflow to j
    assert flow.length("a", "j") == pytest.approx(1.0 + math.log(2.0), abs=1e-12)
    assert flow.length("x", "y") == math.inf
    assert flow.length("j", "a") == math.inf


def test_effective_distance_ratio_point_one():
    graph = SocialGraph.from_edges([(f"s{i}", "hub") for i in range(10)])
    records = {}
    labels = {}
    for i in range(10):
        news = f"n{i}"
        labels[news] = "fake" if i % 2 else "true"
        records[(news, f"s{i}")] = 1
        records[(news, "hub")] = 1
    table = EngagementTable.from_records(graph, records, labels)
    flow = Flow(graph, _networks(graph, table), SHARED_NEWS)
    assert flow.length("s0", "hub") == pytest.approx(1.0 - math.log(0.1), abs=1e-12)


def test_effective_distance_at_least_one():
    for seed in range(10):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        nodes = _table(nets)
        for definition in (SHARED_NEWS, SHARED_FREQUENCY):
            flow = flow_matrix(graph, nodes)[definition]
            assert (flow >= 1.0 - 1e-12).all()
            assert flow.shape == nodes.source.shape
            assert len(flow_lengths(graph.users, nodes, flow)) > 0


def test_geodesic_stats_on_path():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c")])
    table = EngagementTable.from_records(
        graph, {("n1", "a"): 1, ("n1", "b"): 1, ("n1", "c"): 1}, {"n1": "fake"})
    net = build_network(graph, table, "n1")
    stats = distance_stats(net)
    # finite ordered pairs: a-b=1, b-c=1, a-c=2
    assert stats.maximum == 2.0
    assert stats.mean == pytest.approx(4 / 3)
    assert stats.median == 1.0


def test_single_node_stats_zero():
    graph = SocialGraph.from_edges([("a", "b")])
    table = EngagementTable.from_records(graph, {("n1", "a"): 1}, {"n1": "fake"})
    net = build_network(graph, table, "n1")
    stats = distance_stats(net)
    assert (stats.maximum, stats.mean, stats.median) == (0.0, 0.0, 0.0)


def test_cycle_uniform_flow_effective_equals_geodesic():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    table = EngagementTable.from_records(
        graph, {("n1", "a"): 1, ("n1", "b"): 1, ("n1", "c"): 1}, {"n1": "fake"})
    nets = _networks(graph, table)
    flow = flow_matrix(graph, _table(nets))[SHARED_NEWS]
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
            ids = id_network(graph.users, net)
            d = dense_distances(ids.sorted_nodes(), ids.edges)
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
        node_table = _table(nets)
        flow = flow_matrix(graph, node_table)[SHARED_NEWS]
        lengths = flow_lengths(graph.users, node_table, flow)
        by_network = _by_network(node_table, flow)
        for net in nets:
            ids = id_network(graph.users, net)
            weights = {edge: lengths.get(edge, math.inf) for edge in ids.edges}
            nodes = ids.sorted_nodes()
            d = dense_distances(nodes, ids.edges, weights)
            off_diag = ~np.eye(len(nodes), dtype=bool)
            finite = d[np.isfinite(d) & off_diag]
            stats = distance_stats(net, by_network[net.news_id])
            if finite.size == 0:
                assert stats.maximum == 0.0
            else:
                assert stats.maximum == pytest.approx(finite.max(), abs=1e-9)
                assert stats.mean == pytest.approx(finite.mean(), abs=1e-9)


def test_lengths_are_math_log_of_flow_share():
    for seed in range(10):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        for definition in FLOW_DEFINITIONS:
            slow = dict_flow_matrix(_ids(graph, nets), definition)
            nodes = _table(nets)
            lengths = flow_lengths(graph.users, nodes, flow_matrix(graph, nodes)[definition])
            assert lengths.keys() == slow.flows.keys()
            for (i, j), f in slow.flows.items():
                assert lengths[(i, j)] == 1.0 - math.log(f / slow.inflow[j])


def assert_equals_oracle(graph, net, flow=None):
    """`flow` is a pair (lengths of the network's edges, dict oracle flows), or None."""
    fast = distance_stats(net, None if flow is None else flow[0])
    slow = python_distance_stats(id_network(graph.users, net), flow and flow[1])
    assert (fast.maximum, fast.mean, fast.median) == (slow.maximum, slow.mean, slow.median), \
        net.news_id


def _flow_pairs(graph, nets, definition) -> dict:
    """{news: (its network's package lengths, the dict oracle over `nets`)}, checked equal."""
    table = _table(nets)
    fast = flow_matrix(graph, table)[definition]
    slow = dict_flow_matrix(_ids(graph, nets), definition)
    assert flow_lengths(graph.users, table, fast) == slow.lengths
    by_network = _by_network(table, fast)
    for net in nets:
        assert by_network[net.news_id].tolist() == _oracle_lengths(graph, net, slow).tolist()
    return {news: (lengths, slow) for news, lengths in by_network.items()}


def assert_network_set_equals_oracle(graph, nets):
    """Geodesic and both effective distances, flows from the networks themselves."""
    flows = [_flow_pairs(graph, nets, d) for d in FLOW_DEFINITIONS]
    for net in nets:
        assert_equals_oracle(graph, net)
        for flow in flows:
            assert_equals_oracle(graph, net, flow[net.news_id])


def _subsampled(nets, mode):
    # the early-detection seeds at master seed 7, proportion 0.5, repetition 0
    return [subsample(net, mode, 0.5, derive_seed(7, "early", mode, repr(0.5), 0,
                                                  net.news_id))
            for net in nets]


@pytest.mark.parametrize("seed", range(30))
def test_equals_oracle_on_random_corpora(seed):
    graph, table = random_corpus(seed)
    nets = _networks(graph, table)
    assert_network_set_equals_oracle(graph, nets)
    for mode in ("nodes", "edges"):
        assert_network_set_equals_oracle(graph, _subsampled(nets, mode))


@pytest.mark.parametrize("workload", ["sweep_demo", "early_bignets", "build_graph"])
def test_equals_oracle_on_benchmark_corpora(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    spec = workloads.WORKLOADS[workload].spec
    corpus = generate(SyntheticSpec(**spec, **STRONG_EFFECTS, seed=workloads.CORPUS_SEED))
    nets = _networks(corpus.graph, corpus.table)
    assert_network_set_equals_oracle(corpus.graph, nets)
    for mode in ("nodes", "edges"):
        assert_network_set_equals_oracle(corpus.graph, _subsampled(nets, mode))


def test_equals_oracle_with_zero_flow_edges():
    # Flows from the edge-subsampled first half of the stories leave many
    # edges of the whole networks without flow: their length is infinite.
    zero_flow = 0
    for seed in range(10):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        sparse = _ids(graph, _subsampled(nets[:len(nets) // 2], "edges"))
        for definition in FLOW_DEFINITIONS:
            slow = dict_flow_matrix(sparse, definition)
            for net in nets:
                lengths = _oracle_lengths(graph, net, slow)
                zero_flow += int(np.isinf(lengths).sum())
                assert_equals_oracle(graph, net, (lengths, slow))
    assert zero_flow > 0


@pytest.mark.parametrize("width", [1, 2, 5])
def test_source_blocks_continue_the_sum(monkeypatch, width):
    monkeypatch.setattr(distances, "_BLOCK", 0)  # blocks of exactly `width` sources
    monkeypatch.setattr(distances, "_MIN_WIDTH", width)
    for seed in (0, 4, 9):
        graph, table = random_corpus(seed)
        nets = _networks(graph, table)
        assert_network_set_equals_oracle(graph, nets)
        assert_network_set_equals_oracle(graph, _subsampled(nets, "edges"))


@pytest.mark.parametrize("nodes,edges", [
    ([], []),
    (["a"], []),
    (["a", "b", "c"], []),
    (["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
    (["a", "b", "c", "d", "e"], [("b", "a"), ("c", "a"), ("e", "d")]),
    (["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]),
], ids=["empty", "single_node", "edgeless", "two_pairs", "in_star_and_pair",
        "bidirected_path"])
def test_degenerate_networks_equal_oracle(nodes, edges):
    graph = graph_with_users(edges, nodes)
    assert_network_set_equals_oracle(graph, [_network(graph, nodes, edges)])


@st.composite
def flow_digraphs(draw):
    """A network over up to 14 nodes, and the networks its flows come from."""
    n = draw(st.integers(1, 14))
    nodes = [f"v{i:02d}" for i in range(n)]
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=60, unique=True)
                 if pairs else st.just([]))
    counts = {v: draw(st.integers(1, 4)) for v in nodes}
    graph = graph_with_users(edges, nodes)
    net = _network(graph, nodes, edges, counts=counts)
    others = []
    for k in range(draw(st.integers(0, 3))):
        kept = draw(st.lists(st.sampled_from(edges), unique=True) if edges
                    else st.just([]))
        others.append(_network(graph, nodes, kept, f"m{k}", "true", counts))
    if draw(st.booleans()):
        others.append(net)  # otherwise edges used by no other network carry no flow
    return graph, net, others


@settings(max_examples=150)
@given(flow_digraphs())
def test_property_equals_oracle(case):
    graph, net, flow_nets = case
    assert_equals_oracle(graph, net)
    for definition in FLOW_DEFINITIONS:
        slow = dict_flow_matrix(_ids(graph, flow_nets), definition)
        assert_equals_oracle(graph, net, (_oracle_lengths(graph, net, slow), slow))
        _flow_pairs(graph, flow_nets, definition)  # the package's lengths are the oracle's


@pytest.mark.parametrize("seed", range(30))
def test_lengths_equal_the_dict_oracle(seed):
    # both definitions, over whole and subsampled networks
    graph, table = random_corpus(seed)
    nets = _networks(graph, table)
    for flow_nets in (nets, _subsampled(nets, "nodes"), _subsampled(nets, "edges")):
        nodes = _table(flow_nets)
        for definition in FLOW_DEFINITIONS:
            fast = flow_matrix(graph, nodes)[definition]
            slow = dict_flow_matrix(_ids(graph, flow_nets), definition)
            assert flow_lengths(graph.users, nodes, fast) == slow.lengths, (seed, definition)


@pytest.mark.parametrize("seed", range(30))
def test_every_table_edge_gets_a_finite_length_from_its_own_story(seed):
    # whole, node- and edge-subsampled extractors: each extractor's lengths
    # come one per edge of its node table, in the table's edge order
    graph, table = random_corpus(seed)
    nets = _networks(graph, table)
    root = FeatureExtractor(graph, table, {net.news_id: net for net in nets}, {}, None)
    subs = [root.with_networks({net.news_id: net for net in _subsampled(nets, mode)})
            for mode in ("nodes", "edges")]
    for ex in [root] + subs:
        nodes = ex.node_table
        followers = [graph.users[r] for r in nodes.rank[nodes.source].tolist()]
        followees = [graph.users[r] for r in nodes.rank[nodes.target].tolist()]
        for definition in FLOW_DEFINITIONS:
            lengths = ex.flows[definition]
            slow = dict_flow_matrix(_ids(graph, [ex.networks[n] for n in nodes.order]),
                                    definition)
            assert lengths.shape == nodes.source.shape
            assert np.isfinite(lengths).all() and (lengths >= 1.0).all()
            assert lengths.tolist() == [slow.lengths[edge]
                                        for edge in zip(followers, followees)]


def test_lengths_take_math_log():
    # np.log(14 / 37) differs from math.log(14 / 37) in the last place
    graph = SocialGraph.from_edges([("s0", "hub"), ("s1", "hub")])
    table = EngagementTable.from_records(
        graph, {("n1", "s0"): 14, ("n1", "s1"): 23, ("n1", "hub"): 100}, {"n1": "fake"})
    nodes = _table(_networks(graph, table))
    flow = flow_matrix(graph, nodes)[SHARED_FREQUENCY]
    assert float(np.log(np.array([14 / 37]))[0]) != math.log(14 / 37)
    assert flow_lengths(graph.users, nodes, flow) == {("s0", "hub"): 1.0 - math.log(14 / 37),
                                               ("s1", "hub"): 1.0 - math.log(23 / 37)}


def _shape_network(shape, n):
    """A directed path, out-star, in-star or cycle over n nodes, as a network."""
    nodes = [f"v{i:03d}" for i in range(n)]
    edges = {"path": list(zip(nodes, nodes[1:])),
             "out_star": [(nodes[0], v) for v in nodes[1:]],
             "in_star": [(v, nodes[0]) for v in nodes[1:]],
             "cycle": list(zip(nodes, nodes[1:] + nodes[:1]))}[shape]
    graph = graph_with_users(edges, nodes)
    return graph, _network(graph, nodes, edges)


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("shape", ["path", "out_star", "in_star", "cycle"])
def test_hop_counts_across_word_boundaries(shape, n):
    graph, net = _shape_network(shape, n)
    assert_equals_oracle(graph, net)
    stats = distance_stats(net)
    if shape == "cycle":  # every ordered pair, at each of 1..n-1 hops n times
        assert (stats.maximum, stats.mean, stats.median) == (n - 1, n / 2, n / 2)


@pytest.mark.parametrize("block", [1, 300])
def test_hop_counts_in_forced_blocks_of_words(monkeypatch, block):
    # 129 nodes take three words of roots: blocks of one word, or of two
    # words and then one word holding a single root
    monkeypatch.setattr(distances, "_BLOCK", block)
    assert distances._word_width(129, 128) == (2 if block == 300 else 1)
    for shape in ("path", "cycle", "in_star"):
        assert_equals_oracle(*_shape_network(shape, 129))
    for seed in (0, 4, 9):
        graph, table = random_corpus(seed)
        for net in _networks(graph, table):
            assert_equals_oracle(graph, net)


def test_hop_counts_with_isolated_nodes():
    nodes = [f"v{i:03d}" for i in range(70)]
    edges = [(nodes[i], nodes[i + 1]) for i in range(0, 68, 2)]  # 34 pairs and v068, v069
    graph = graph_with_users(edges, nodes)
    net = _network(graph, nodes, edges)
    assert_equals_oracle(graph, net)
    stats = distance_stats(net)
    assert (stats.maximum, stats.mean, stats.median) == (1.0, 1.0, 1.0)
    edgeless = _network(graph, nodes, [])
    assert distance_stats(edgeless) == distances.DistanceStats(0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", range(30))
def test_unit_lengths_give_the_hop_statistics(seed):
    # the relaxation, a second oracle: every edge of length 1.0
    graph, table = random_corpus(seed)
    nets = _networks(graph, table)
    for net in nets + _subsampled(nets, "nodes") + _subsampled(nets, "edges"):
        assert distance_stats(net, np.ones(net.n_edges)) == distance_stats(net), net.news_id


def test_word_width_at_the_target_shape():
    # one diffusion network spanning the real benchmark's follow graph:
    # about 24k users and 600k edges
    n, m = 24_000, 600_000
    width = distances._word_width(n, m)
    assert width == 1
    # the gathered frontier words (edges x width) and the seen words (nodes x width)
    assert max(width * n, width * m) <= max(distances._BLOCK, n, m)
    # early_bignets' largest network fits all its roots in one block
    assert distances._word_width(207, 1000) == 4
    assert distances._word_width(1200, 18967) * 18967 <= distances._BLOCK
    assert distances._word_width(5, 3) == 1
