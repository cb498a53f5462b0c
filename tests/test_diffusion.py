import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import SUBSAMPLE_MODES, build_all_networks, build_network, subsample

from oracles import brute_induced_edges, id_network, random_corpus
from oracles import subsample as id_subsample


def _corpus():
    graph = SocialGraph.from_edges(
        [("u1", "u2"), ("u4", "u1"), ("u2", "u3"), ("u3", "u4")],
    )
    table = EngagementTable.from_records(
        {("n1", "u1"): 1, ("n1", "u2"): 2, ("n1", "u3"): 1, ("n2", "u4"): 3},
        {"n1": "fake", "n2": "true"},
    )
    return graph, table


def _ids(graph, net):
    return id_network(graph.users, net)


def test_induced_subgraph():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    ids = _ids(graph, net)
    assert ids.nodes == {"u1", "u2", "u3"}
    assert ids.edges == {("u1", "u2"), ("u2", "u3")}  # u4->u1 excluded
    assert ids.counts == {"u1": 1, "u2": 2, "u3": 1}
    assert net.label == "fake"
    # ranks of the sorted ids, and edges as sorted position pairs
    assert net.ranks.tolist() == [0, 1, 2]
    assert net.counts.tolist() == [1, 2, 1]
    assert net.edges.tolist() == [[0, 1], [1, 2]]


def test_spreader_outside_the_graph_is_rejected():
    graph, _ = _corpus()
    table = EngagementTable.from_records({("n1", "u1"): 1, ("n1", "z"): 1}, {"n1": "fake"})
    with pytest.raises(ValueError, match="spreader 'z' of news 'n1' is not in the social graph"):
        build_network(graph, table, "n1")


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
            ids = _ids(graph, net)
            assert ids.edges == brute_induced_edges(graph, ids.nodes), news


def test_subsample_identity():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    for mode in ("nodes", "edges"):
        same = subsample(net, mode, 1.0, seed=4)
        assert same.ranks.tolist() == net.ranks.tolist()
        assert same.edges.tolist() == net.edges.tolist()
        assert same.counts.tolist() == net.counts.tolist()


@settings(max_examples=60)
@given(st.integers(0, 29), st.sampled_from(SUBSAMPLE_MODES), st.integers(0, 2**64 - 1))
def test_property_full_subsample_keeps_the_network(corpus_seed, mode, seed):
    # early detection evaluates p = 1.0 once for every mode and seed
    graph, table = random_corpus(corpus_seed)
    for net in build_all_networks(graph, table).values():
        same = subsample(net, mode, 1.0, seed)
        assert _ids(graph, same) == _ids(graph, net)


def test_subsample_zero_edges():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    sub = subsample(net, "edges", 0.0, seed=4)
    assert _ids(graph, sub).nodes == _ids(graph, net).nodes
    assert _ids(graph, sub).edges == frozenset()


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
    assert _ids(graph, sub1) == _ids(graph, sub2)


def test_subsample_nodes_reinduces_edges():
    for seed in range(8):
        graph, table = random_corpus(seed)
        for net in build_all_networks(graph, table).values():
            sub = _ids(graph, subsample(net, "nodes", 0.6, seed=seed))
            assert sub.edges == {(u, v) for u, v in _ids(graph, net).edges
                                 if u in sub.nodes and v in sub.nodes}
            assert set(sub.counts) == set(sub.nodes)


def test_subsample_validation():
    graph, table = _corpus()
    net = build_network(graph, table, "n1")
    with pytest.raises(ValueError):
        subsample(net, "triangles", 0.5, seed=0)
    with pytest.raises(ValueError):
        subsample(net, "nodes", 1.5, seed=0)


@pytest.mark.parametrize("mode", SUBSAMPLE_MODES)
@pytest.mark.parametrize("proportion", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_subsample_equals_the_id_version(mode, proportion):
    # random.sample draws the same indices from range(n) as from the sorted ids
    for corpus_seed in range(10):
        graph, table = random_corpus(corpus_seed)
        for news, net in build_all_networks(graph, table).items():
            seed = corpus_seed * 1000 + len(news)
            assert _ids(graph, subsample(net, mode, proportion, seed)) \
                == id_subsample(_ids(graph, net), mode, proportion, seed), (corpus_seed, news)


@settings(max_examples=60)
@given(st.integers(0, 29), st.sampled_from(SUBSAMPLE_MODES), st.floats(0.0, 1.0),
       st.integers(0, 2**64 - 1))
def test_property_subsample_equals_the_id_version(corpus_seed, mode, proportion, seed):
    graph, table = random_corpus(corpus_seed)
    for net in build_all_networks(graph, table).values():
        sub = subsample(net, mode, proportion, seed)
        assert _ids(graph, sub) == id_subsample(_ids(graph, net), mode, proportion, seed)
        assert sub.edges.shape == (sub.n_edges, 2)
        assert sub.edges.tolist() == sorted(sub.edges.tolist())
