import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet import centrality
from newsnet.centrality import MEASURES, centralities
from newsnet.corpus import SocialGraph
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate

from oracles import (dense_betweenness, dense_closeness, dense_hits_authority,
                     graph_with_users, id_centralities, per_source_shortest_paths, python_brandes,
                     python_closeness, python_hits, python_pagerank, random_corpus,
                     string_graph)


def assert_equals_python_oracles(graph):
    """Every measure equals the pure-Python loops bit for bit."""
    nodes = list(graph.users)
    scores = id_centralities(graph)
    graph = string_graph(graph)
    assert scores["betweenness"] == python_brandes(nodes, graph.out_neighbors)
    assert scores["out_closeness"] == python_closeness(nodes, graph.out_neighbors)
    assert scores["in_closeness"] == python_closeness(nodes, graph.in_neighbors)
    assert scores["out_degree"] == {v: float(len(graph.out_neighbors[v])) for v in nodes}
    assert scores["in_degree"] == {v: float(len(graph.in_neighbors[v])) for v in nodes}
    hubs, auths = python_hits(nodes, graph.out_neighbors, graph.in_neighbors)
    assert scores["pagerank"] == python_pagerank(nodes, graph.out_neighbors)
    assert scores["hub"] == hubs
    assert scores["authority"] == auths


def test_three_cycle_symmetry():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    scores = id_centralities(graph)
    for v in "abc":
        assert scores["in_degree"][v] == 1.0
        assert scores["out_degree"][v] == 1.0
        assert scores["pagerank"][v] == pytest.approx(1 / 3, abs=1e-9)


def test_path_betweenness():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c")])
    scores = id_centralities(graph)
    assert scores["betweenness"] == {"a": 0.0, "b": 1.0, "c": 0.0}
    oracle = dense_betweenness(list(graph.users), string_graph(graph).edges)
    for v in graph.users:
        assert scores["betweenness"][v] == pytest.approx(oracle[v], abs=1e-12)


def test_star_authority_via_eigen_oracle():
    edges = [(f"leaf{i}", "center") for i in range(5)]
    graph = SocialGraph.from_edges(edges)
    scores = id_centralities(graph)
    oracle = dense_hits_authority(list(graph.users), string_graph(graph).edges)
    assert scores["authority"]["center"] == pytest.approx(1.0, abs=1e-9)
    for v in graph.users:
        assert scores["authority"][v] == pytest.approx(oracle[v], abs=1e-8)
    hubs = [scores["hub"][f"leaf{i}"] for i in range(5)]
    assert max(hubs) - min(hubs) < 1e-12
    assert scores["hub"]["center"] == pytest.approx(0.0, abs=1e-12)


def test_closeness_definition_on_path():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c")])
    scores = id_centralities(graph)
    # out: a reaches {b,c} at distances 1,2
    assert scores["out_closeness"]["a"] == pytest.approx(2 / 3)
    assert scores["out_closeness"]["c"] == 0.0
    assert scores["in_closeness"]["c"] == pytest.approx(2 / 3)
    assert scores["in_closeness"]["a"] == 0.0


def test_matches_dense_oracles_on_random_graphs():
    for seed in range(6):
        graph, _ = random_corpus(seed)
        nodes = list(graph.users)
        scores = id_centralities(graph)
        edges = string_graph(graph).edges
        bc = dense_betweenness(nodes, edges)
        ocl = dense_closeness(nodes, edges, "out")
        icl = dense_closeness(nodes, edges, "in")
        for v in nodes:
            assert scores["betweenness"][v] == pytest.approx(bc[v], abs=1e-9)
            assert scores["out_closeness"][v] == pytest.approx(ocl[v], abs=1e-9)
            assert scores["in_closeness"][v] == pytest.approx(icl[v], abs=1e-9)


def test_pagerank_simplex_and_hits_norm():
    for seed in range(6):
        graph, _ = random_corpus(seed)
        scores = id_centralities(graph)
        assert sum(scores["pagerank"].values()) == pytest.approx(1.0, abs=1e-9)
        if graph.n_edges:
            hub_norm = sum(x * x for x in scores["hub"].values()) ** 0.5
            auth_norm = sum(x * x for x in scores["authority"].values()) ** 0.5
            assert hub_norm == pytest.approx(1.0, abs=1e-9)
            assert auth_norm == pytest.approx(1.0, abs=1e-9)
        for measure in MEASURES:
            assert all(v >= 0.0 for v in scores[measure].values())


def test_edgeless_graph():
    graph = graph_with_users([], ["a", "b", "c"])
    scores = id_centralities(graph)
    assert sum(scores["pagerank"].values()) == pytest.approx(1.0, abs=1e-12)
    assert all(v == 0.0 for v in scores["hub"].values())
    assert all(v == 0.0 for v in scores["authority"].values())
    assert all(v == 0.0 for v in scores["betweenness"].values())


def test_empty_graph_rejected():
    graph = SocialGraph.from_edges([])
    with pytest.raises(ValueError):
        centralities(graph)


@pytest.mark.parametrize("seed", range(30))
def test_equals_python_oracles_on_random_corpora(seed):
    graph, _ = random_corpus(seed)
    assert_equals_python_oracles(graph)


def _grid(width, height):
    """Directed grid, edges right and down: binomially many shortest paths."""
    edges = []
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                edges.append((f"g{x}{y}", f"g{x + 1}{y}"))
            if y + 1 < height:
                edges.append((f"g{x}{y}", f"g{x}{y + 1}"))
    return SocialGraph.from_edges(edges)


def _diamonds(n_blocks, width):
    """A chain of diamonds: each hub fans out to `width` nodes that rejoin."""
    edges = []
    for b in range(n_blocks):
        for k in range(width):
            edges += [(f"h{b}", f"m{b}_{k}"), (f"m{b}_{k}", f"h{b + 1}")]
    edges.append((f"h{n_blocks}", "h0"))
    return SocialGraph.from_edges(edges)


@pytest.mark.parametrize("graph", [
    SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "d")]),
    SocialGraph.from_edges([(f"leaf{i}", "hub") for i in range(6)]
                           + [("hub", f"leaf{i}") for i in range(0, 6, 2)]),
    SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")]),
    SocialGraph.from_edges([("a", "b"), ("b", "a"), ("b", "c"),
                            ("x", "y"), ("y", "z"), ("z", "x")]),
    graph_with_users([("a", "b"), ("b", "c")], ["a", "b", "c", "lone"]),
    graph_with_users([], ["a", "b", "c", "d"]),
    graph_with_users([("a", "s"), ("b", "s"), ("c", "t"), ("s", "t")],
                     ["a", "b", "c", "s", "t", "u"]),
    _grid(5, 4),
    _diamonds(4, 3),
], ids=["path", "star", "three_cycle", "two_components", "isolated_node",
        "edgeless_all_dangling", "into_sinks", "grid", "diamonds"])
def test_equals_python_oracles_on_small_shapes(graph):
    assert_equals_python_oracles(graph)


def test_equals_python_oracles_on_synthetic_corpus():
    graph = generate(SyntheticSpec(n_users=200, news_per_class=5, seed=3)).graph
    assert_equals_python_oracles(graph)


def test_shortest_path_measures_equal_python_oracles_at_benchmark_shape():
    # The early-detection benchmark's follow graph: 600 users, 9,382 edges.
    # Its BFS levels are hundreds of nodes wide, so a node's queue position
    # and its rank order differ, and the dependency pass must add by the former.
    spec = SyntheticSpec(n_users=600, edge_prob=0.02, news_per_class=15,
                         base_spreaders=50, **STRONG_EFFECTS, seed=7)
    graph = generate(spec).graph
    assert graph.n_edges == 9382
    nodes = list(graph.users)
    scores = id_centralities(graph)
    graph = string_graph(graph)
    assert scores["betweenness"] == python_brandes(nodes, graph.out_neighbors)
    assert scores["out_closeness"] == python_closeness(nodes, graph.out_neighbors)
    assert scores["in_closeness"] == python_closeness(nodes, graph.in_neighbors)


def test_betweenness_finite_past_int64_path_counts():
    # A root feeding 26 layers of 7 nodes, consecutive layers joined as K7,7:
    # the root reaches the last layer by 7**25 (about 1.3e21) shortest paths,
    # past both 2**53 and the int64 range.
    layers = [[f"l{i:02d}_{j}" for j in range(7)] for i in range(26)]
    edges = [("root", v) for v in layers[0]]
    for upper, lower in zip(layers, layers[1:]):
        edges += [(u, v) for u in upper for v in lower]
    graph = SocialGraph.from_edges(edges)
    fast = id_centralities(graph)["betweenness"]
    slow = python_brandes(list(graph.users), string_graph(graph).out_neighbors)
    for v in graph.users:
        assert math.isfinite(fast[v])
        assert fast[v] == pytest.approx(slow[v], rel=1e-12, abs=0.0)


@st.composite
def digraphs(draw):
    n = draw(st.integers(1, 25))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=120, unique=True)
                  if pairs else st.just([]))
    nodes = [f"v{i:02d}" for i in range(n)]
    return graph_with_users([(nodes[u], nodes[v]) for u, v in chosen], nodes)


@settings(max_examples=60)
@given(digraphs())
def test_property_equals_python_oracles(graph):
    assert_equals_python_oracles(graph)


@settings(max_examples=40)
@given(digraphs(), st.integers(1, 50))
def test_property_order_preserving_relabel(graph, stride):
    nodes = list(graph.users)
    rename = {v: f"user{i * stride:05d}" for i, v in enumerate(nodes)}
    relabeled = graph_with_users(
        [(rename[u], rename[v]) for u, v in string_graph(graph).edges], rename.values())
    scores = id_centralities(graph)
    renamed_scores = id_centralities(relabeled)
    for measure in MEASURES:
        assert ([scores[measure][v] for v in nodes]
                == [renamed_scores[measure][rename[v]] for v in nodes])


def assert_blocks_equal_per_source_loop(graph, monkeypatch, width=None):
    """Betweenness and the four closeness sums of `_shortest_paths`, run in
    blocks of `width` sources (the budget's width when None), equal the
    one-source-at-a-time loop's with `==`."""
    if width is not None:
        monkeypatch.setattr(centrality, "_block_width", lambda n, m: width)
    args = graph.n_nodes, graph.indptr, graph.indices
    fast, slow = centrality._shortest_paths(*args), per_source_shortest_paths(*args)
    assert fast[0].tolist() == slow[0].tolist()
    for got, want in zip(fast[1] + fast[2], slow[1] + slow[2]):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("width", [None, 1, 2, 3])
@pytest.mark.parametrize("seed", range(30))
def test_blocks_equal_per_source_loop_on_random_corpora(seed, width, monkeypatch):
    graph, _ = random_corpus(seed)
    assert_blocks_equal_per_source_loop(graph, monkeypatch, width)


def _random_digraph(n, p, seed):
    rng = random.Random(seed)
    nodes = [f"v{i:02d}" for i in range(n)]
    return graph_with_users([(u, v) for u in nodes for v in nodes
                             if u != v and rng.random() < p], nodes)


@pytest.mark.parametrize("width", [None, 1, 3, 4])
@pytest.mark.parametrize("graph", [
    # from a leaf, level 1 is the hub alone, whose out-row is longer than the
    # in-rows of the leaves left: the first bottom-up level
    SocialGraph.from_edges([("hub", f"l{i}") for i in range(9)]
                           + [(f"l{i}", "hub") for i in range(9)]),
    # one node per level: every level scans top-down
    SocialGraph.from_edges([(f"p{i:02d}", f"p{i + 1:02d}") for i in range(30)]),
    SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
                            ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"), ("x", "z")]),
    graph_with_users([("a", "s"), ("b", "s"), ("c", "t"), ("s", "t"), ("a", "b")],
                     ["a", "b", "c", "lone", "s", "t", "u"]),
    _grid(4, 4),
    _diamonds(3, 4),
    # n = 3 * 4 + 1 and 3 * 4 - 1: a partial last block at widths 3 and 4
    _random_digraph(13, 0.3, seed=1),
    _random_digraph(11, 0.3, seed=2),
], ids=["star", "long_path", "two_components", "sinks_and_isolated", "grid",
        "diamonds", "n_13", "n_11"])
def test_blocks_equal_per_source_loop_on_small_shapes(graph, width, monkeypatch):
    assert_blocks_equal_per_source_loop(graph, monkeypatch, width)


@pytest.mark.parametrize("width", [None, 1, 4])
def test_blocks_equal_per_source_loop_at_benchmark_shape(width, monkeypatch):
    # the early-detection benchmark's follow graph, whose BFS levels go
    # bottom-up once their frontier's out-rows outnumber the unreached in-rows
    spec = SyntheticSpec(n_users=600, edge_prob=0.02, news_per_class=15,
                         base_spreaders=50, **STRONG_EFFECTS, seed=7)
    assert_blocks_equal_per_source_loop(generate(spec).graph, monkeypatch, width)


def test_block_width_at_the_target_shape():
    # the real benchmark's follow graph: about 24k users and 600k edges
    n, m = 24_000, 600_000
    width = centrality._block_width(n, m)
    assert width == 1
    # flat keys stay below width * n; a level's scan and its queue keys below width * m
    assert max(width * n, width * m) <= max(centrality._BLOCK, n, m) < 2 ** 31
    assert centrality._block_width(1200, 18967) * 18967 <= centrality._BLOCK
    assert centrality._block_width(5, 3) == 5
