import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet import wl
from newsnet.diffusion import SUBSAMPLE_MODES, DiffusionNetwork, build_all_networks, subsample
from newsnet.features import NodeTable, extract_matrix
from newsnet.ml.crossval import stratified_folds
from newsnet.susceptibility import BY_NEWS, NORMAL, SUSCEPTIBLE, fit_all
from newsnet.util import derive_seed
from newsnet.wl import SimilarityIndex, normalized_gram, wl_kernel, wl_kernel_normalized

from oracles import (IDENTITY, SUSCEPTIBILITY_CLASS, LabeledGraph, PairwiseSimilarityIndex,
                     WLDictionary, dict_normalized_gram, dict_refinement, id_networks,
                     labeled_graph, make_network, random_corpus, rank_networks,
                     same_partition, similarity_features, string_normalized_gram,
                     wl_signature)
from oracles import fit as dict_fit


class TwoClassModel:
    def __init__(self, susceptible):
        self.susceptible = set(susceptible)

    def classify(self, user):
        return SUSCEPTIBLE if user in self.susceptible else NORMAL


def _net(news_id, edges, nodes=None, label="fake"):
    return make_network(news_id, edges, nodes or None, label)


def _table(networks, h=3):
    """The node table of some id networks."""
    return NodeTable(rank_networks(networks)[1], h)


def _classes(table, model, users):
    """Every node's class under `model`, in node order; `users` are the ids by rank."""
    return [model.classify(users[r]) for r in table.rank.tolist()]


def _index(networks, training, model, h=3):
    """The SimilarityIndex of some id networks, every node classified by `model`."""
    users, ranked = rank_networks(networks)
    table = NodeTable(ranked, h)
    return SimilarityIndex(table, training, _classes(table, model, users))


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
    index = _index(networks, training, model)
    fakes = [networks[n] for n in training if networks[n].label == "fake"]
    trues = [networks[n] for n in training if networks[n].label == "true"]
    batch = index.features()
    for t, news in enumerate(sorted(networks)):
        single = similarity_features(networks[news], fakes, trues, model, h=3)
        assert batch[t].tolist() == pytest.approx(single, abs=1e-12)


def test_planted_density_separates_classes(strong_extractor):
    """Dense fake cliques vs sparse true sets: fake targets prefer fake refs."""
    networks = strong_extractor.networks
    training = sorted(networks)
    _, codes = fit_all(strong_extractor.history, strong_extractor.graph.n_nodes, training,
                       0.5)[BY_NEWS]
    table = strong_extractor.node_table
    index = SimilarityIndex(table, training, codes[table.rank].tolist())
    fake_margin = []
    for news, sims in zip(table.order, index.features()):
        if networks[news].label != "fake":
            continue
        fake_margin.append(sims[2] - sims[3])  # class-labeled scheme
    assert sum(fake_margin) / len(fake_margin) > 0.0


def assert_equals_pairwise_oracle(networks, training, model, h=3, graphs=None):
    """Both Gram matrices equal the string WL's, and every similarity value
    the pairwise loop's, bit for bit."""
    graphs = graphs or _table(networks, h)
    classes = _classes(graphs, model, rank_networks(networks)[0])
    assert np.array_equal(graphs.identity_gram,
                          string_normalized_gram(networks, IDENTITY, h=h))
    assert np.array_equal(normalized_gram(graphs, classes),
                          string_normalized_gram(networks, SUSCEPTIBILITY_CLASS, model, h))
    fast = SimilarityIndex(graphs, training, classes)
    slow = PairwiseSimilarityIndex(networks, training, model, h=h)
    for news, values in zip(sorted(networks), fast.features()):
        assert tuple(values.tolist()) == slow.features(news)


@pytest.mark.parametrize("seed", range(30))
def test_equals_pairwise_oracle_on_random_corpora(seed):
    graph, table = random_corpus(seed)
    networks = id_networks(graph.users, build_all_networks(graph, table))
    graphs = _table(networks, 3)
    news = sorted(networks)
    for fold in range(3):
        training = [n for i, n in enumerate(news) if i % 3 != fold]
        for theta in (0.0, 0.5, 1.0):
            model = dict_fit(graph, table, training, "by_news", theta)
            assert_equals_pairwise_oracle(networks, training, model, graphs=graphs)
    for h in (0, 1, 3):
        assert_equals_pairwise_oracle(networks, training, model, h=h)


def test_equals_pairwise_oracle_on_synthetic_corpus(strong_extractor):
    networks = id_networks(strong_extractor.graph.users, strong_extractor.networks)
    split = stratified_folds({n: net.label for n, net in networks.items()}, seed=7)
    training = split.train_news(0)
    model = dict_fit(strong_extractor.graph, strong_extractor.table, training, "by_news", 0.5)
    slow = PairwiseSimilarityIndex(networks, training, model, h=strong_extractor.h)
    matrix = extract_matrix(strong_extractor, training, 0.5)
    for news, row in zip(matrix.news_ids, matrix.X):
        assert tuple(row[138:].tolist()) == slow.features(news)


def test_identity_gram_cached_per_extractor(small_strong_extractor):
    extractor = small_strong_extractor
    graphs = extractor.node_table
    gram = graphs.identity_gram
    assert extractor.node_table is graphs and graphs.identity_gram is gram
    networks = id_networks(extractor.graph.users, extractor.networks)
    assert np.array_equal(gram, string_normalized_gram(networks, IDENTITY, h=extractor.h))
    dropped = min(extractor.networks)
    fewer = {n: net for n, net in extractor.networks.items() if n != dropped}
    assert np.array_equal(extractor.with_networks(fewer).node_table.identity_gram,
                          string_normalized_gram({n: networks[n] for n in fewer}, IDENTITY,
                                                 h=extractor.h))


def test_empty_reference_class_is_zero():
    networks = {"n1": _net("n1", [("a", "b")], label="fake"),
                "n2": _net("n2", [("b", "c")], label="true"),
                "n3": _net("n3", [("a", "c")], label="fake")}
    model = TwoClassModel({"a"})
    fast = _index(networks, ["n1", "n3"], model)
    assert fast.features()[1, 1] == fast.features()[1, 3] == 0.0  # n2
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
    assert _index(networks, sorted(networks), model).features()[4].tolist() \
        == [0.0, 0.0, 0.0, 0.0]  # n5


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
    gram = _table(networks, 1).identity_gram
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
    gram = _table(networks, 0).identity_gram
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
    before = _index(networks, training, model, h)
    after = _index(renamed, training, renamed_model, h)
    assert before.features().tolist() == after.features().tolist()


def assert_refinement_equals_dict_oracle(table, labels):
    """Each iteration groups the nodes as the dict refinement does, and the
    normalized Gram matrix equals the dict oracle's, which takes `** 0.5` of
    all n x n products."""
    fast = wl._refine(table, labels)
    slow = dict_refinement(table, labels)
    assert len(fast) == len(slow) == table.h + 1
    for ours, theirs in zip(fast, slow):
        assert same_partition(ours, theirs)
    assert np.array_equal(normalized_gram(table, labels), dict_normalized_gram(table, labels))


def _corpus_variants(seed):
    """random_corpus(seed)'s whole rank networks and node- and
    edge-subsampled copies, with every user's class code fit on the whole
    networks."""
    graph, engagements = random_corpus(seed)
    networks = build_all_networks(graph, engagements)
    news = sorted(networks)
    training = [n for i, n in enumerate(news) if i % 3 != 0]
    codes = fit_all(NodeTable(networks), graph.n_nodes, training, 0.5)[BY_NEWS][1]
    variants = [networks] + [
        {n: subsample(networks[n], mode, 0.5, derive_seed(seed, mode, n)) for n in news}
        for mode in SUBSAMPLE_MODES]
    return variants, codes


@pytest.mark.parametrize("seed", range(30))
def test_refinement_equals_dict_oracle_on_random_corpora(seed):
    variants, codes = _corpus_variants(seed)
    for networks in variants:
        for h in (0, 1, 3, 5):
            table = NodeTable(networks, h)
            assert_refinement_equals_dict_oracle(table, table.rank)
            assert_refinement_equals_dict_oracle(table, codes[table.rank])


def test_refinement_equals_dict_oracle_on_synthetic_corpus(strong_extractor):
    table = strong_extractor.node_table
    assert_refinement_equals_dict_oracle(table, table.rank)
    assert_refinement_equals_dict_oracle(table, table.rank % 3)


def test_refinement_with_isolated_nodes_and_an_empty_table():
    networks = {
        "n1": _net("n1", [("a", "b")], nodes={"a", "b", "c", "d"}),
        "n2": _net("n2", [], nodes={"c", "d"}, label="true"),
        "n3": _net("n3", [], nodes=set(), label="true"),
    }
    for h in (0, 1, 3):
        table = _table(networks, h)
        assert_refinement_equals_dict_oracle(table, table.rank)
        assert_refinement_equals_dict_oracle(table, ["x", "y", "x", "x", "y", "y"])
        empty = NodeTable({}, h)
        assert [x.size for x in wl._refine(empty, empty.rank)] == [0] * (h + 1)
        assert normalized_gram(empty, empty.rank).shape == (0, 0)
        assert_refinement_equals_dict_oracle(empty, empty.rank)


def _halves(neighbours, own):
    """A value table whose first half (the neighbour values) and second half
    (the own-label values) come from the two given functions of a size."""
    return lambda size: np.concatenate([neighbours(size // 2), own(size // 2)])


_ZEROS = functools.partial(np.zeros, dtype=np.uint64)
_COUNT = functools.partial(np.arange, dtype=np.uint64)


# Value tables under which many different signatures collide in the first
# iteration: all values equal, equal neighbour values, equal own-label values,
# and three values throughout.
@pytest.mark.parametrize("few", [_ZEROS, _halves(_ZEROS, _COUNT), _halves(_COUNT, _ZEROS),
                                 lambda size: np.arange(size, dtype=np.uint64) % 3],
                         ids=["equal", "equal_neighbours", "equal_own", "mod3"])
def test_hash_collisions_are_caught_and_redrawn(monkeypatch, small_strong_extractor, few):
    # The exact check must see the collision and redraw, and the redrawn
    # values must give the dict oracle's partition and the same Gram.
    table = small_strong_extractor.node_table
    classes = table.rank % 2
    expected = [normalized_gram(table, labels) for labels in (table.rank, classes)]
    draw = wl._hash_values
    attempts = []

    def collide_first(size, attempt):
        attempts.append(attempt)
        return few(size) if attempt == 0 else draw(size, attempt)

    monkeypatch.setattr(wl, "_hash_values", collide_first)
    for labels, gram in zip((table.rank, classes), expected):
        attempts.clear()
        assert np.array_equal(normalized_gram(table, labels), gram)
        assert attempts == [0, 1]
        attempts.clear()
        assert_refinement_equals_dict_oracle(table, labels)  # refines twice
        assert attempts == [0, 1, 0, 1]


# Hand-made collisions that only one part of the exact check can tell apart,
# as (edges, labels in node order, the first value table): the neighbour
# values come first, then the own-label values, indexed by sorted label.
CHECK_CASES = {
    # a's neighbour labels (p, q) and b's (r, r) have equal sums
    "sorted_labels": ([("a", "c"), ("a", "d"), ("b", "e"), ("b", "f")],
                      ["s", "s", "p", "q", "r", "r"],
                      [1, 3, 2, 10, 0, 0, 100, 200, 300, 400, 0, 0]),
    # z's neighbour labels (p) are a prefix of a's (p, q), and q's value is
    # 0; z's row is the last, so a read of a's length from it runs past the end
    "degree": ([("a", "c"), ("a", "d"), ("z", "c")], ["s", "p", "q", "s"],
               [5, 0, 7, 0, 100, 200, 300, 0]),
    # a and b have the same neighbour and equal own-label values
    "own_label": ([("a", "c"), ("b", "c")], ["s", "t", "p"], [5, 7, 9, 0, 0, 0]),
}


@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_each_part_of_the_check_catches_its_collision(monkeypatch, case):
    edges, labels, values = CHECK_CASES[case]
    table = _table({"n1": _net("n1", edges)}, 1)
    draw = wl._hash_values
    attempts = []

    def collide_first(size, attempt):
        attempts.append(attempt)
        return np.array(values, dtype=np.uint64) if attempt == 0 else draw(size, attempt)

    monkeypatch.setattr(wl, "_hash_values", collide_first)
    first = wl._refine(table, labels)[1]
    assert attempts == [0, 1]
    assert same_partition(first, dict_refinement(table, labels)[1])


def test_distinct_values_draw_once(monkeypatch, small_strong_extractor):
    table = small_strong_extractor.node_table
    draw = wl._hash_values
    attempts = []
    monkeypatch.setattr(wl, "_hash_values",
                        lambda size, attempt: attempts.append(attempt) or draw(size, attempt))
    wl._refine(table, table.rank)
    assert attempts == [0]


def test_refinement_keys_at_the_target_shape():
    # The check sorts keys node * n + label over a table of n nodes, labels
    # below n. The real benchmark has about 24k users; even if every user
    # spread each of 10k stories, the keys stay inside int64.
    n = 24_000 * 10_000
    assert (n - 1) * n + (n - 1) < 2 ** 63
    # and past 2**31 the sorted keys keep every node's labels: 60k nodes in
    # 600 paths of 100 distinct users, so node * n reaches 3.6e9
    networks = {}
    for t in range(600):
        ranks = np.arange(100 * t, 100 * t + 100, dtype=np.int64)
        edges = np.column_stack([np.arange(99), np.arange(1, 100)]).astype(np.int64)
        networks[f"n{t:03d}"] = DiffusionNetwork(f"n{t:03d}", "fake" if t % 2 else "true",
                                                 ranks, np.ones(100, dtype=np.int64), edges)
    table = NodeTable(networks, 1)
    assert table.network.size ** 2 > 2 ** 31
    assert_refinement_equals_dict_oracle(table, table.rank)
    assert_refinement_equals_dict_oracle(table, table.position % 7)
