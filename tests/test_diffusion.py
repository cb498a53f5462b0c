import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import SUBSAMPLE_MODES, build_all_networks, build_network, subsample

from oracles import brute_induced_edges, random_corpus


def _corpus():
    graph = SocialGraph.from_edges(
        [("u1", "u2"), ("u4", "u1"), ("u2", "u3"), ("u3", "u4")],
    )
    table = EngagementTable.from_records(
        {("n1", "u1"): 1, ("n1", "u2"): 2, ("n1", "u3"): 1, ("n2", "u4"): 3},
        {"n1": "fake", "n2": "true"},
    )
    return graph, table


def test_induced_subgraph():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    assert net.nodes == {"u1", "u2", "u3"}
    assert net.edges == {("u1", "u2"), ("u2", "u3")}  # u4->u1 excluded
    assert net.counts == {"u1": 1, "u2": 2, "u3": 1}
    assert net.label == "fake"


def test_single_spreader_network():
    graph, table = _corpus()
    net = build_network(graph, table, "n2")
    assert net.n_nodes == 1 and net.n_edges == 0


def test_unknown_news_id():
    graph, table = _corpus()
    with pytest.raises(KeyError):
        build_network(graph, table, "n9")


def test_induced_edges_match_brute_force():
    for seed in range(10):
        graph, table = random_corpus(seed)
        for news, net in build_all_networks(graph, table).items():
            assert net.edges == brute_induced_edges(graph, net.nodes), news


def test_subsample_identity():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    for mode in ("nodes", "edges"):
        same = subsample(net, mode, 1.0, seed=4)
        assert same.nodes == net.nodes
        assert same.edges == net.edges
        assert same.counts == net.counts


@settings(max_examples=60)
@given(st.integers(0, 29), st.sampled_from(SUBSAMPLE_MODES), st.integers(0, 2**64 - 1))
def test_property_full_subsample_keeps_the_network(corpus_seed, mode, seed):
    # early detection evaluates p = 1.0 once for every mode and seed
    graph, table = random_corpus(corpus_seed)
    for net in build_all_networks(graph, table).values():
        same = subsample(net, mode, 1.0, seed)
        assert (same.nodes, same.edges, same.counts) == (net.nodes, net.edges, net.counts)


def test_subsample_zero_edges():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    sub = subsample(net, "edges", 0.0, seed=4)
    assert sub.nodes == net.nodes
    assert sub.edges == frozenset()


def test_subsample_nodes_deterministic():
    graph, table = random_corpus(3)
    news = table.news_ids()[0]
    net = build_network(graph, table, news)
    # build a 10-node network by padding the corpus if needed
    if net.n_nodes < 10:
        users = list(graph.users)[:10]
        records = {(news, u): 1 for u in users}
        table = EngagementTable.from_records(records, {news: "fake"})
        net = build_network(graph, table, news)
    sub1 = subsample(net, "nodes", 0.5, seed=99)
    sub2 = subsample(net, "nodes", 0.5, seed=99)
    assert sub1.n_nodes == 5
    assert sub1.nodes == sub2.nodes and sub1.edges == sub2.edges


def test_subsample_nodes_reinduces_edges():
    for seed in range(8):
        graph, table = random_corpus(seed)
        for net in build_all_networks(graph, table).values():
            sub = subsample(net, "nodes", 0.6, seed=seed)
            assert sub.edges == {(u, v) for u, v in net.edges
                                 if u in sub.nodes and v in sub.nodes}
            assert set(sub.counts) == set(sub.nodes)


def test_subsample_validation():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    with pytest.raises(ValueError):
        subsample(net, "triangles", 0.5, seed=0)
    with pytest.raises(ValueError):
        subsample(net, "nodes", 1.5, seed=0)
