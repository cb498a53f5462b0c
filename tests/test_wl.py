import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet import susceptibility
from newsnet.diffusion import DiffusionNetwork, build_all_networks
from newsnet.features import extract_matrix
from newsnet.ml.crossval import stratified_folds
from newsnet.susceptibility import NORMAL, SUSCEPTIBLE
from newsnet.wl import SimilarityIndex, WLNetworks, wl_kernel, wl_kernel_normalized

from oracles import (IDENTITY, SUSCEPTIBILITY_CLASS, LabeledGraph, PairwiseSimilarityIndex,
                     WLDictionary, labeled_graph, random_corpus, similarity_features,
                     string_normalized_gram, wl_signature)


class TwoClassModel:
    def __init__(self, susceptible):
        self.susceptible = set(susceptible)

    def classify(self, user):
        return SUSCEPTIBLE if user in self.susceptible else NORMAL


def _net(news_id, edges, nodes=None, label="fake"):
    nodes = frozenset(nodes or {u for e in edges for u in e})
    return DiffusionNetwork(news_id=news_id, label=label, nodes=nodes,
                            edges=frozenset(edges), counts={u: 1 for u in nodes})


def _labeled(nodes, undirected_edges, labels):
    adjacency = {v: set() for v in nodes}
    for u, v in undirected_edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return LabeledGraph(nodes=tuple(sorted(nodes)),
                        adjacency={v: tuple(sorted(adjacency[v])) for v in nodes},
                        labels=dict(labels))


def test_zero_iterations_is_label_histogram():
    g = _labeled("abc", [("a", "b")], {"a": "x", "b": "x", "c": "y"})
    d = WLDictionary()
    sig = wl_signature(g, 0, d)
    assert len(sig.histograms) == 1
    assert sorted(sig.histograms[0].values()) == [1, 2]
    assert sum(sig.histograms[0].values()) == 3


def test_histogram_totals_node_count_every_iteration():
    g = _labeled("abcd", [("a", "b"), ("b", "c"), ("c", "d")],
                 {v: "u" for v in "abcd"})
    sig = wl_signature(g, 3, WLDictionary())
    for hist in sig.histograms:
        assert sum(hist.values()) == 4


def test_isomorphic_graphs_same_signature():
    g1 = _labeled("abc", [("a", "b"), ("b", "c")], {"a": "L", "b": "M", "c": "L"})
    g2 = _labeled("xyz", [("x", "y"), ("y", "z")], {"x": "L", "y": "M", "z": "L"})
    d = WLDictionary()
    s1 = wl_signature(g1, 3, d)
    s2 = wl_signature(g2, 3, d)
    assert s1.histograms == s2.histograms
    assert wl_kernel_normalized(s1, s2) == pytest.approx(1.0, abs=1e-12)


def test_path_vs_triangle_differ_at_one_iteration():
    path = _labeled("abc", [("a", "b"), ("b", "c")], {v: "u" for v in "abc"})
    tri = _labeled("abc", [("a", "b"), ("b", "c"), ("a", "c")],
                   {v: "u" for v in "abc"})
    d = WLDictionary()
    s_path = wl_signature(path, 1, d)
    s_tri = wl_signature(tri, 1, d)
    assert s_path.histograms[0] == s_tri.histograms[0]
    assert s_path.histograms[1] != s_tri.histograms[1]
    # hand check: triangle nodes all relabel identically, path splits 2/1
    assert sorted(s_tri.histograms[1].values()) == [3]
    assert sorted(s_path.histograms[1].values()) == [1, 2]


def test_self_similarity_is_one():
    g = _labeled("abcd", [("a", "b"), ("c", "d")], {v: v for v in "abcd"})
    sig = wl_signature(g, 2, WLDictionary())
    assert wl_kernel_normalized(sig, sig) == pytest.approx(1.0, abs=1e-12)


def test_disjoint_label_sets_orthogonal():
    d = WLDictionary()
    g1 = _labeled("ab", [("a", "b")], {"a": "p", "b": "q"})
    g2 = _labeled("cd", [("c", "d")], {"c": "r", "d": "s"})
    s1 = wl_signature(g1, 2, d)
    s2 = wl_signature(g2, 2, d)
    assert wl_kernel(s1, s2) == 0.0
    assert wl_kernel_normalized(s1, s2) == 0.0


def test_mismatched_signatures_rejected():
    g = _labeled("ab", [("a", "b")], {"a": "p", "b": "q"})
    d1 = WLDictionary()
    d2 = WLDictionary()
    s1 = wl_signature(g, 2, d1)
    s2 = wl_signature(g, 2, d2)
    with pytest.raises(ValueError, match="dictionaries"):
        wl_kernel(s1, s2)
    s3 = wl_signature(g, 3, d1)
    with pytest.raises(ValueError, match="iteration"):
        wl_kernel(s1, s3)


def _random_labeled(rng, idx):
    n = rng.randint(3, 9)
    nodes = [f"g{idx}v{i}" for i in range(n)]
    edges = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]
             if rng.random() < 0.4]
    labels = {v: rng.choice(["A", "B", "C"]) for v in nodes}
    return _labeled(nodes, edges, labels)


def test_gram_matrix_positive_semidefinite():
    rng = random.Random(17)
    graphs = [_random_labeled(rng, i) for i in range(20)]
    d = WLDictionary()
    sigs = [wl_signature(g, 3, d) for g in graphs]
    gram = np.array([[wl_kernel(a, b) for b in sigs] for a in sigs])
    assert np.allclose(gram, gram.T)
    eigenvalues = np.linalg.eigvalsh(gram)
    assert eigenvalues.min() >= -1e-8


def test_labeled_graph_schemes():
    net = _net("n1", [("a", "b"), ("b", "a"), ("b", "c")])
    ident = labeled_graph(net, IDENTITY)
    assert ident.labels == {"a": "a", "b": "b", "c": "c"}
    assert ident.adjacency["a"] == ("b",)  # reciprocal pair collapsed
    model = TwoClassModel({"a"})
    classed = labeled_graph(net, SUSCEPTIBILITY_CLASS, model)
    assert classed.labels == {"a": SUSCEPTIBLE, "b": NORMAL, "c": NORMAL}
    with pytest.raises(ValueError, match="model"):
        labeled_graph(net, SUSCEPTIBILITY_CLASS)


def test_similarity_identical_to_sole_reference():
    target = _net("n1", [("a", "b"), ("b", "c")])
    ref = _net("n2", [("a", "b"), ("b", "c")], label="fake")
    values = similarity_features(target, [ref], [], TwoClassModel({"a"}), h=2)
    assert values[0] == pytest.approx(1.0, abs=1e-12)  # fake similarity, identity
    assert values[1] == 0.0  # no true references
    assert values[2] == pytest.approx(1.0, abs=1e-12)
    assert values[3] == 0.0


def test_similarity_empty_references():
    target = _net("n1", [("a", "b")])
    assert similarity_features(target, [], [], TwoClassModel(set()), h=2) \
        == (0.0, 0.0, 0.0, 0.0)


def test_similarity_index_matches_standalone():
    rng = random.Random(5)
    networks = {}
    for i in range(8):
        nodes = [f"u{k}" for k in rng.sample(range(12), rng.randint(3, 6))]
        edges = {(u, v) for u in nodes for v in nodes
                 if u != v and rng.random() < 0.4}
        networks[f"n{i}"] = _net(f"n{i}", edges, nodes=nodes,
                                 label="fake" if i % 2 else "true")
    model = TwoClassModel({f"u{k}" for k in range(6)})
    training = ["n0", "n1", "n2", "n3"]
    index = SimilarityIndex(WLNetworks(networks, 3), training, model)
    fakes = [networks[n] for n in training if networks[n].label == "fake"]
    trues = [networks[n] for n in training if networks[n].label == "true"]
    for news, net in networks.items():
        batch = index.features(news)
        single = similarity_features(net, fakes, trues, model, h=3)
        assert batch == pytest.approx(single, abs=1e-12)


def test_planted_density_separates_classes(strong_extractor):
    """Dense fake cliques vs sparse true sets: fake targets prefer fake refs."""
    networks = strong_extractor.networks
    from newsnet.susceptibility import fit

    training = sorted(networks)
    model = fit(strong_extractor.table, training, "by_news", 0.5)
    index = SimilarityIndex(WLNetworks(networks, 3), training, model)
    fake_margin = []
    for news in sorted(networks):
        if networks[news].label != "fake":
            continue
        sims = index.features(news)
        fake_margin.append(sims[2] - sims[3])  # class-labeled scheme
    assert sum(fake_margin) / len(fake_margin) > 0.0


def assert_equals_pairwise_oracle(networks, training, model, h=3, graphs=None):
    """Both Gram matrices equal the string WL's, and every similarity value
    the pairwise loop's, bit for bit."""
    graphs = graphs or WLNetworks(networks, h)
    assert np.array_equal(graphs.identity_gram,
                          string_normalized_gram(networks, IDENTITY, h=h))
    assert np.array_equal(graphs.normalized_gram([model.classify(u) for u in graphs.users]),
                          string_normalized_gram(networks, SUSCEPTIBILITY_CLASS, model, h))
    fast = SimilarityIndex(graphs, training, model)
    slow = PairwiseSimilarityIndex(networks, training, model, h=h)
    for news in sorted(networks):
        assert fast.features(news) == slow.features(news)


@pytest.mark.parametrize("seed", range(30))
def test_equals_pairwise_oracle_on_random_corpora(seed):
    graph, table = random_corpus(seed)
    networks = build_all_networks(graph, table)
    graphs = WLNetworks(networks, 3)
    news = sorted(networks)
    for fold in range(3):
        training = [n for i, n in enumerate(news) if i % 3 != fold]
        for theta in (0.0, 0.5, 1.0):
            model = susceptibility.fit(table, training, "by_news", theta)
            assert_equals_pairwise_oracle(networks, training, model, graphs=graphs)
    for h in (0, 1, 3):
        assert_equals_pairwise_oracle(networks, training, model, h=h)


def test_equals_pairwise_oracle_on_synthetic_corpus(strong_extractor):
    networks = strong_extractor.networks
    split = stratified_folds({n: net.label for n, net in networks.items()}, seed=7)
    training = split.train_news(0)
    model = susceptibility.fit(strong_extractor.table, training, "by_news", 0.5)
    slow = PairwiseSimilarityIndex(networks, training, model, h=strong_extractor.h)
    matrix = extract_matrix(strong_extractor, training, 0.5)
    for news in sorted(networks):
        assert tuple(matrix.row(news)[138:].tolist()) == slow.features(news)


def test_identity_gram_cached_per_extractor(small_strong_extractor):
    extractor = small_strong_extractor
    graphs = extractor.wl_networks
    gram = graphs.identity_gram
    assert extractor.wl_networks is graphs and graphs.identity_gram is gram
    assert np.array_equal(gram, string_normalized_gram(extractor.networks, IDENTITY,
                                                       h=extractor.h))
    dropped = min(extractor.networks)
    fewer = {n: net for n, net in extractor.networks.items() if n != dropped}
    assert np.array_equal(extractor.with_networks(fewer).wl_networks.identity_gram,
                          string_normalized_gram(fewer, IDENTITY, h=extractor.h))


def test_empty_reference_class_is_zero():
    networks = {"n1": _net("n1", [("a", "b")], label="fake"),
                "n2": _net("n2", [("b", "c")], label="true"),
                "n3": _net("n3", [("a", "c")], label="fake")}
    model = TwoClassModel({"a"})
    fast = SimilarityIndex(WLNetworks(networks), ["n1", "n3"], model)
    assert fast.features("n2")[1] == fast.features("n2")[3] == 0.0
    assert_equals_pairwise_oracle(networks, ["n1", "n3"], model)
    assert_equals_pairwise_oracle(networks, [], model)


def test_isolated_nodes_edgeless_and_empty_networks():
    networks = {
        "n1": _net("n1", [("a", "b")], nodes={"a", "b", "c", "d"}),
        "n2": _net("n2", [], nodes={"c", "d"}, label="true"),
        "n3": _net("n3", [("b", "c"), ("c", "d")], nodes={"b", "c", "d", "e"}),
        "n4": _net("n4", [], nodes={"a"}, label="true"),
        "n5": _net("n5", [], nodes=set(), label="true"),
    }
    model = TwoClassModel({"a", "c"})
    for h in (0, 1, 3):
        assert_equals_pairwise_oracle(networks, sorted(networks), model, h=h)
    assert SimilarityIndex(WLNetworks(networks), sorted(networks), model).features("n5") \
        == (0.0, 0.0, 0.0, 0.0)


def test_iterations_keep_separate_label_spaces():
    # The user id "0|" is the string iteration 1 compresses a lone node with
    # iteration-0 id 0 to, so dictionary id 1 is n1's iteration-1 label and
    # n2's iteration-0 label. The kernel compares iterations separately, so
    # the two networks share nothing; pooling the iterations would give 0.5.
    networks = {"n1": _net("n1", [], nodes={"x"}, label="fake"),
                "n2": _net("n2", [], nodes={"0|"}, label="true")}
    d = WLDictionary()
    s1, s2 = (wl_signature(labeled_graph(networks[n], IDENTITY), 1, d)
              for n in ("n1", "n2"))
    assert set(s1.histograms[1]) == set(s2.histograms[0]) == {1}
    gram = WLNetworks(networks, 1).identity_gram
    assert gram.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert_equals_pairwise_oracle(networks, ["n1", "n2"], TwoClassModel(set()), h=1)


def test_user_ids_with_separators():
    # The string oracle joins ids with "|" and ","; raw ids holding them must
    # still partition the nodes as the integer refinement does.
    ids = ["0|", "0|1", "1,2", "|", ",", "0|1,2", "a"]
    networks = {
        "n1": _net("n1", [("0|", "1,2"), ("1,2", "|")], nodes={"0|", "1,2", "|", "a"}),
        "n2": _net("n2", [(",", "0|1"), ("0|1", "0|1,2")], nodes=ids[:6], label="true"),
        "n3": _net("n3", [("0|", "a"), ("a", "0|")], label="true"),
        "n4": _net("n4", [], nodes={"0|1,2"}),
    }
    for h in (0, 1, 3):
        assert_equals_pairwise_oracle(networks, ["n1", "n2", "n3"],
                                      TwoClassModel({"0|", ",", "a"}), h=h)


def test_normalization_keeps_python_pow():
    # Edgeless identity-labelled networks at h = 0 have self-kernels equal to
    # their sizes. On glibc, 23 * 127 = 2921 is the smallest product whose
    # `** 0.5` differs from np.sqrt in the last place.
    users = [f"u{i:03d}" for i in range(127)]
    networks = {"n1": _net("n1", [], nodes=users[:23], label="fake"),
                "n2": _net("n2", [], nodes=users, label="true")}
    gram = WLNetworks(networks, 0).identity_gram
    assert gram[0, 1] == 23 / 2921 ** 0.5
    assert_equals_pairwise_oracle(networks, ["n1", "n2"], TwoClassModel(users[:5]), h=0)


def test_reference_means_add_in_sorted_order():
    # Twenty references per class: numpy's pairwise sum over the rows of a
    # contiguous block rounds some of these means differently from adding
    # the kernels one at a time.
    rng = random.Random(0)
    networks = {}
    for i in range(40):
        nodes = [f"u{k:02d}" for k in rng.sample(range(30), rng.randint(2, 12))]
        edges = {(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.3}
        networks[f"n{i:02d}"] = _net(f"n{i:02d}", edges, nodes=nodes,
                                     label="fake" if i % 2 else "true")
    model = TwoClassModel({f"u{k:02d}" for k in range(0, 30, 3)})
    assert_equals_pairwise_oracle(networks, sorted(networks), model)


@st.composite
def corpora(draw):
    """A few small networks over a shared user pool, a fold and a two-class model.

    User ids are drawn over an alphabet holding the string oracle's "|" and
    "," separators."""
    users = draw(st.lists(st.text("0|,", min_size=1, max_size=3), unique=True,
                          min_size=1, max_size=10))
    networks = {}
    for i in range(draw(st.integers(1, 7))):
        nodes = draw(st.lists(st.sampled_from(users), unique=True, max_size=len(users)))
        pairs = [(u, v) for u in nodes for v in nodes if u != v]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)
                     if pairs else st.just([]))
        label = draw(st.sampled_from(["fake", "true"]))
        networks[f"n{i}"] = _net(f"n{i}", edges, nodes=nodes, label=label)
    training = draw(st.lists(st.sampled_from(sorted(networks)), unique=True))
    susceptible = draw(st.lists(st.sampled_from(users), unique=True))
    return networks, training, TwoClassModel(susceptible), draw(st.integers(0, 3))


@settings(max_examples=80)
@given(corpora())
def test_property_equals_pairwise_oracle(corpus):
    networks, training, model, h = corpus
    assert_equals_pairwise_oracle(networks, training, model, h=h)


@settings(max_examples=40)
@given(corpora(), st.integers(1, 50))
def test_property_order_preserving_relabel(corpus, stride):
    networks, training, model, h = corpus
    users = sorted({v for net in networks.values() for v in net.nodes})
    rename = {v: f"user{i * stride:05d}" for i, v in enumerate(users)}
    renamed = {n: _net(n, [(rename[u], rename[v]) for u, v in net.edges],
                       nodes=[rename[v] for v in net.nodes], label=net.label)
               for n, net in networks.items()}
    renamed_model = TwoClassModel(rename[v] for v in model.susceptible if v in rename)
    before = SimilarityIndex(WLNetworks(networks, h), training, model)
    after = SimilarityIndex(WLNetworks(renamed, h), training, renamed_model)
    for news in sorted(networks):
        assert before.features(news) == after.features(news)
