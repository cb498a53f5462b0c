import dataclasses
import math

import numpy as np
import pytest

from newsnet import cli, susceptibility
from newsnet.corpus import EngagementTable, SocialGraph, load_corpus, save_corpus
from newsnet.diffusion import DiffusionNetwork, subsample
from newsnet.features import (DYNAMIC_NAMES, FEATURE_NAMES, FEATURE_REGISTRY, N_FEATURES,
                              PATTERNS, STATIC_NAMES, FeatureExtractor, NodeTable,
                              dynamic_features, extract, extract_matrix, feature_index,
                              pattern_mask)
from newsnet.triads import Triangles
from newsnet.susceptibility import METHODS, fit_all

from oracles import (brute_ego_delta, graph_with_users, id_network, id_records, random_corpus,
                     string_graph)
from oracles import dynamic_features as oracle_dynamic_features
from oracles import feature_row as oracle_feature_row
from oracles import fit_all as dict_fit_all
from oracles import static_features as oracle_static_features

NO_SIMILARITY = (0.0, 0.0, 0.0, 0.0)


def _extractor(graph, table, seed=0):
    return FeatureExtractor.build(graph, table, seed=seed)


def _vector(ex, vectors, news):
    """`extract` of one network, its dynamic row taken from the array block."""
    table = ex.node_table
    block = dynamic_features(table, vectors)
    t = table.order.index(news)
    return extract(ex.static_block[t], block[t], NO_SIMILARITY)


def _value(vector, name):
    return vector[feature_index(name) - 1]


def test_registry_contract():
    assert len(FEATURE_REGISTRY) == N_FEATURES == 142
    assert [spec.index for spec in FEATURE_REGISTRY] == list(range(1, 143))
    boundaries = {
        "n_spreaders": 1, "mean_susceptibility_news": 10, "mean_in_degree": 14,
        "geodesic_max": 30, "effective_max_news": 33, "total_engagements": 39,
        "mean_engagements": 48, "n_edges": 53, "n_edges_nn_news": 56,
        "n_edges_delta_pos_news": 72, "n_triangles": 84, "n_triad_t_nnn_news": 87,
        "pct_triad_t_nnn_news": 111, "n_communities_global": 135,
        "sim_fake_id": 139, "sim_true_class": 142,
    }
    for name, index in boundaries.items():
        assert FEATURE_NAMES[index - 1] == name


def test_pattern_mask_contract():
    assert pattern_mask(["farther_distance"]) == list(range(30, 39))
    assert pattern_mask(["more_spreaders"]) == list(range(1, 30))
    assert pattern_mask(["stronger_engagement"]) == list(range(39, 53))
    assert pattern_mask(["denser_networks"]) == list(range(53, 139))
    assert pattern_mask(["similarity"]) == list(range(139, 143))
    assert pattern_mask(PATTERNS) == list(range(1, 143))
    assert pattern_mask(["more_spreaders", "denser_networks"]) \
        == list(range(1, 30)) + list(range(53, 139))
    with pytest.raises(ValueError):
        pattern_mask([])
    with pytest.raises(ValueError):
        pattern_mask(["unknown_pattern"])


def test_singleton_network_features():
    graph = SocialGraph.from_edges([("u1", "u2")])
    table = EngagementTable.from_records(
        graph, {("n1", "u1"): 3, ("n2", "u2"): 1}, {"n1": "fake", "n2": "true"})
    ex = _extractor(graph, table)
    vec = _vector(ex, fit_all(ex.history, ex.graph.n_nodes, {"n1", "n2"}, 0.5), "n1")
    assert _value(vec, "n_spreaders") == 1.0
    assert _value(vec, "total_engagements") == 3.0
    assert _value(vec, "mean_engagements") == 3.0
    for name in ("n_edges", "edges_per_spreader", "ego_density",
                 "n_triangles", "triangles_per_spreader", "triad_density"):
        assert _value(vec, name) == 0.0
    assert all(math.isfinite(v) for v in vec)


def test_all_susceptible_triangle():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    table = EngagementTable.from_records(
        graph, {("n1", "a"): 1, ("n1", "b"): 1, ("n1", "c"): 1}, {"n1": "fake"})
    ex = _extractor(graph, table)
    vec = _vector(ex, fit_all(ex.history, ex.graph.n_nodes, {"n1"}, 0.5), "n1")
    assert _value(vec, "ego_density") == 1.0  # 3 edges / C(3,2)
    assert _value(vec, "n_triad_c_sss_news") == 1.0
    assert _value(vec, "pct_susceptible_spreaders_news") == 1.0
    assert _value(vec, "mean_susceptibility_news") == 1.0
    assert _value(vec, "n_edges_ss_news") == 3.0
    assert _value(vec, "pct_edges_ss_news") == 1.0


def test_percentage_features_in_unit_interval():
    for seed in range(5):
        graph, table = random_corpus(seed)
        ex = _extractor(graph, table, seed=seed)
        matrix = extract_matrix(ex, table.news_ids(), 0.4)
        for spec in FEATURE_REGISTRY:
            if spec.name.startswith(("pct_", "sim_")):
                col = matrix.X[:, spec.index - 1]
                assert (col >= 0.0).all() and (col <= 1.0 + 1e-12).all(), spec.name
        assert np.isfinite(matrix.X).all()


def test_count_features_are_integral():
    graph, table = random_corpus(2)
    ex = _extractor(graph, table)
    matrix = extract_matrix(ex, table.news_ids(), 0.5)
    for spec in FEATURE_REGISTRY:
        if spec.name.startswith(("n_", "total_")):
            col = matrix.X[:, spec.index - 1]
            assert np.allclose(col, np.round(col)), spec.name
            assert (col >= 0).all()


def test_ego_and_delta_partitions_match_oracle():
    for seed in range(6):
        graph, table = random_corpus(seed)
        ex = _extractor(graph, table, seed=seed)
        training = table.news_ids()
        models = dict_fit_all(graph, table, training, 0.5)
        vectors = fit_all(ex.history, graph.n_nodes, training, 0.5)
        for news in training:
            net = id_network(graph.users, ex.networks[news])
            vec = _vector(ex, vectors, news)
            for tag, method in (("news", "by_news"), ("freq", "by_frequency")):
                brute = brute_ego_delta(net, models[method])
                for cls in ("nn", "ns", "sn", "ss"):
                    assert _value(vec, f"n_edges_{cls}_{tag}") == brute[cls]
                for cls in ("delta_pos", "delta_zero", "delta_neg"):
                    assert _value(vec, f"n_edges_{cls}_{tag}") == brute[cls]
                labeled = sum(brute[c] for c in ("nn", "ns", "sn", "ss"))
                assert labeled + brute["unknown_endpoint"] == net.n_edges
                delta_total = sum(brute[c] for c in
                                  ("delta_pos", "delta_zero", "delta_neg"))
                assert delta_total == net.n_edges


def test_scale_consistency_for_by_news_proportions():
    graph, table = random_corpus(7)
    doubled = EngagementTable.from_records(
        graph, {key: 2 * c for key, c in id_records(graph, table).items()}, dict(table.labels))
    ex1 = _extractor(graph, table)
    ex2 = _extractor(graph, doubled)
    training = table.news_ids()
    m1 = extract_matrix(ex1, training, 0.5)
    m2 = extract_matrix(ex2, training, 0.5)
    invariant = [spec.index - 1 for spec in FEATURE_REGISTRY
                 if (spec.name.endswith("_news") and spec.name.startswith(("pct_",
                     "mean_susceptibility", "median_susceptibility")))
                 or spec.name in ("ego_density", "triad_density",
                                  "community_density_global",
                                  "community_density_local")]
    assert np.array_equal(m1.X[:, invariant], m2.X[:, invariant])


def test_extraction_is_pure():
    graph, table = random_corpus(9)
    ex = _extractor(graph, table, seed=1)
    training = table.news_ids()[:-1] or table.news_ids()
    m1 = extract_matrix(ex, training, 0.5)
    m2 = extract_matrix(ex, training, 0.5)
    assert m1.X.tobytes() == m2.X.tobytes()
    # a fresh extractor over the same inputs gives bit-identical values too
    m3 = extract_matrix(_extractor(graph, table, seed=1), training, 0.5)
    assert m1.X.tobytes() == m3.X.tobytes()


def test_matrix_csv_round_shape(tmp_path):
    paths = [tmp_path / name for name in ("edges.csv", "engagements.csv", "labels.csv")]
    save_corpus(*random_corpus(3), *paths)
    assert cli.main(["extract", "--out", str(tmp_path / "out"), "--edges", str(paths[0]),
                     "--engagements", str(paths[1]), "--labels", str(paths[2])]) == 0
    graph, table = load_corpus(*paths)
    matrix = extract_matrix(_extractor(graph, table), table.news_ids(), 0.5)
    lines = (tmp_path / "out" / "features.csv").read_text().strip().splitlines()
    assert lines[0].startswith("news_id,label,f001")
    assert lines[0].endswith("f142")
    assert len(lines) == len(matrix.news_ids) + 1
    assert lines[1:] == [",".join([news, label] + list(map(repr, row))) for news, label, row
                         in zip(matrix.news_ids, matrix.labels, matrix.X.tolist())]


def _relabel_users(graph, table, rename):
    graph2 = graph_with_users([(rename[u], rename[v]) for u, v in string_graph(graph).edges],
                              [rename[v] for v in graph.users])
    records = {(news, rename[user]): count
               for (news, user), count in id_records(graph, table).items()}
    return graph2, EngagementTable.from_records(graph2, records, dict(table.labels))


@pytest.mark.parametrize("seed", range(30))
def test_order_preserving_user_relabel_keeps_every_value(seed):
    # New ids of other lengths and characters, in the same sorted order: no
    # value may depend on the id strings beyond their order.
    graph, table = random_corpus(seed)
    gaps = np.random.default_rng(seed).integers(1, 1000, graph.n_nodes)
    rename = {v: f"user-{int(k):07d}"
              for v, k in zip(graph.users, np.cumsum(gaps))}
    training = table.news_ids()[:max(2, len(table.news_ids()) // 2)]
    graph2, table2 = _relabel_users(graph, table, rename)
    # the same ranks, so the same arrays
    assert graph2.users == tuple(rename[v] for v in graph.users)
    assert np.array_equal(graph2.indptr, graph.indptr)
    assert np.array_equal(graph2.indices, graph.indices)
    before = extract_matrix(_extractor(graph, table, seed=seed), training, 0.5)
    after = extract_matrix(_extractor(graph2, table2, seed=seed), training, 0.5)
    assert after.news_ids == before.news_ids
    assert after.labels == before.labels
    for news, row, row2 in zip(before.news_ids, before.X, after.X):
        assert row2.tolist() == row.tolist(), news


# Float sums whose addends follow sorted-id order: a scrambling relabel
# moves them in the last bits only.
ID_ORDERED_SUMS = (
    "mean_susceptibility_news", "mean_susceptibility_freq",
    "mean_in_closeness", "mean_out_closeness", "mean_betweenness",
    "mean_pagerank", "mean_hub", "mean_authority",
    "median_betweenness", "median_pagerank", "median_hub", "median_authority",
    "effective_mean_news", "effective_mean_freq",
)
# Louvain visits and numbers nodes in sorted-id order.
COMMUNITY_VALUES = ("n_communities_global", "n_communities_local",
                    "community_density_global", "community_density_local")


@pytest.mark.parametrize("seed", range(30))
def test_order_scrambling_user_relabel_moves_only_id_ordered_values(seed):
    graph, table = random_corpus(seed)
    perm = np.random.default_rng(seed).permutation(graph.n_nodes)
    rename = {v: f"user{int(k):03d}" for v, k in zip(graph.users, perm)}
    training = table.news_ids()[:max(2, len(table.news_ids()) // 2)]
    before = extract_matrix(_extractor(graph, table, seed=seed), training, 0.5)
    after = extract_matrix(_extractor(*_relabel_users(graph, table, rename), seed=seed),
                           training, 0.5)
    assert after.news_ids == before.news_ids and after.labels == before.labels
    for f, name in enumerate(FEATURE_NAMES):
        old, new = before.X[:, f], after.X[:, f]
        if name in ID_ORDERED_SUMS:
            assert np.all(np.abs(new - old) <= 1e-14 * np.abs(old)), name
        elif name not in COMMUNITY_VALUES:
            assert new.tolist() == old.tolist(), name
    # the community values may change, but by whole communities
    n_spreaders = after.X[:, feature_index("n_spreaders") - 1]
    for scope in ("global", "local"):
        count = after.X[:, feature_index(f"n_communities_{scope}") - 1]
        density = after.X[:, feature_index(f"community_density_{scope}") - 1]
        assert np.all(count == np.round(count))
        assert np.all((1 <= count) & (count <= n_spreaders))
        assert np.all(density == count / n_spreaders)


def assert_block_equals_oracle(ex, training, theta):
    """The array block equals the dict loops, and every extract_matrix row the
    by-name assembly of the static block, the dict loops and the WL values."""
    models = dict_fit_all(ex.graph, ex.table, training, theta)
    table = ex.node_table
    block = dynamic_features(table, fit_all(ex.history, ex.graph.n_nodes, training, theta))
    assert block.shape == (len(ex.networks), len(DYNAMIC_NAMES))
    matrix = extract_matrix(ex, training, theta)
    assert np.isfinite(matrix.X).all()
    for t, news in enumerate(table.order):
        got = dict(zip(DYNAMIC_NAMES, block[t].tolist()))
        want = oracle_dynamic_features(ex, news, models)
        assert got.keys() == want.keys()
        for name, value in want.items():
            assert got[name] == value, (news, name)
        row = oracle_feature_row(ex, news, models, matrix.X[t][-4:].tolist())
        assert matrix.X[t].tolist() == list(row), news
    return models, block


@pytest.mark.parametrize("seed", range(30))
def test_dynamic_block_equals_dict_oracle(seed):
    graph, table = random_corpus(seed)
    ex = _extractor(graph, table, seed=seed)
    news = sorted(ex.networks)
    for fold in range(3):
        training = [n for i, n in enumerate(news) if i % 3 != fold]
        for theta in (0.0, 0.5, 1.0):
            assert_block_equals_oracle(ex, training, theta)
    # subsampled networks: empty (p = 0), single-node and edgeless ones
    for p in (0.0, 0.3):
        sub = ex.with_networks({n: subsample(net, "nodes", p, seed)
                                for n, net in ex.networks.items()})
        assert_block_equals_oracle(sub, news, 0.5)


def _degenerate_extractor():
    """Networks: a trained triangle and pair, a single node, an edgeless pair,
    an untrained triangle (every spreader unknown) and an empty network."""
    graph = graph_with_users([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"),
                              ("x", "y"), ("y", "z"), ("z", "x")], "abcdefghxyz")
    records = {("n1", "a"): 2, ("n1", "b"): 1, ("n1", "c"): 3, ("n2", "d"): 1,
               ("n2", "e"): 4, ("n2", "a"): 1, ("n3", "f"): 2, ("n4", "g"): 1,
               ("n4", "h"): 5, ("n5", "x"): 1, ("n5", "y"): 2, ("n5", "z"): 1}
    labels = {"n1": "fake", "n2": "true", "n3": "fake", "n4": "true", "n5": "fake",
              "n6": "true"}
    return _extractor(graph, EngagementTable.from_records(graph, records, labels))


DYNAMIC_EDGE_VALUES = [name for name in DYNAMIC_NAMES
                       if name.startswith(("n_edges_", "pct_edges_", "n_triad_", "pct_triad_"))]


def test_dynamic_block_on_degenerate_networks():
    ex = _degenerate_extractor()
    assert ex.networks["n6"].n_nodes == 0 and ex.networks["n3"].n_nodes == 1
    for theta in (0.0, 0.5, 1.0):
        models, block = assert_block_equals_oracle(ex, ["n1", "n2", "n3", "n4", "n6"], theta)
        rows = {news: dict(zip(DYNAMIC_NAMES, row))
                for news, row in zip(ex.node_table.order, block.tolist())}
        for news in ("n3", "n4", "n6"):  # no edge among the spreaders
            assert all(rows[news][name] == 0.0 for name in DYNAMIC_EDGE_VALUES), news
        untrained = rows["n5"]
        for tag in ("news", "freq"):
            assert untrained[f"n_normal_spreaders_{tag}"] == 0.0
            assert untrained[f"n_susceptible_spreaders_{tag}"] == 0.0
            assert untrained[f"mean_susceptibility_{tag}"] == theta
            assert untrained[f"n_edges_delta_zero_{tag}"] == 3.0
            assert untrained[f"pct_triad_c_nnn_{tag}"] == 0.0
    assert all(value == 0.0 for value in rows["n6"].values())


def test_property_every_value_is_finite():
    # ROADMAP item 6: every value of every vector, θ at the interior and
    # both ends (where every score or none equals θ)
    for seed in range(30):
        graph, table = random_corpus(seed)
        ex = _extractor(graph, table, seed=seed)
        training = table.news_ids()[:max(2, len(table.news_ids()) // 2)]
        for theta in (0.0, 0.5, 1.0):
            assert np.isfinite(extract_matrix(ex, training, theta).X).all(), (seed, theta)


def test_node_table_numbers_nodes_in_sorted_order(small_strong_extractor):
    ex = small_strong_extractor
    table = ex.node_table
    assert table.order == sorted(ex.networks)
    assert [ex.graph.users[r] for r in table.rank] == [
        v for news in table.order
        for v in id_network(ex.graph.users, ex.networks[news]).sorted_nodes()]
    assert table.labels == [ex.networks[news].label for news in table.order]
    assert ex.node_table is table
    fewer = ex.with_networks({n: ex.networks[n] for n in table.order[1:]})
    assert fewer.node_table.order == table.order[1:]


def test_subsampled_extractor_fits_on_the_full_history(small_strong_extractor, monkeypatch):
    # Subsampling hides spreaders from the features, not from the training
    # history the susceptibility scores are fit on.
    ex = small_strong_extractor
    sub = ex.with_networks({n: subsample(net, "nodes", 0.5, 3) for n, net in ex.networks.items()})
    training = sorted(ex.networks)[::2]
    fitted = []
    fit = susceptibility.fit_all
    monkeypatch.setattr(susceptibility, "fit_all",
                        lambda *args: fitted.append(fit(*args)) or fitted[-1])
    extract_matrix(ex, training, 0.5)
    extract_matrix(sub, training, 0.5)
    root, sampled = fitted
    for method in METHODS:
        assert [v.tolist() for v in sampled[method]] == [v.tolist() for v in root[method]]
    own = fit(NodeTable(sub.networks), ex.graph.n_nodes, training, 0.5)
    assert any(own[m][0].tolist() != root[m][0].tolist() for m in METHODS)



def _static_rows(ex) -> dict:
    return {news: dict(zip(STATIC_NAMES, row))
            for news, row in zip(ex.node_table.order, ex.static_block.tolist())}


@pytest.mark.parametrize("seed", range(30))
def test_static_block_equals_dict_oracle(seed):
    graph, table = random_corpus(seed)
    ex = _extractor(graph, table, seed=seed)
    subs = [ex.with_networks({n: subsample(net, mode, p, seed) for n, net in ex.networks.items()})
            for mode, p in (("nodes", 0.0), ("nodes", 0.5), ("edges", 0.5))]
    for extractor in [ex] + subs:
        assert extractor.static_block.shape == (len(extractor.networks), len(STATIC_NAMES))
        for news, got in _static_rows(extractor).items():
            want = oracle_static_features(extractor, news)
            assert got.keys() == want.keys()
            for name, value in want.items():
                assert got[name] == value, (seed, news, name)


def test_static_block_on_degenerate_networks():
    ex = _degenerate_extractor()
    rows = _static_rows(ex)
    for news, got in rows.items():
        assert got == oracle_static_features(ex, news), news
    assert all(value == 0.0 for value in rows["n6"].values())
    assert rows["n3"]["n_spreaders"] == 1.0 and rows["n3"]["n_communities_local"] == 1.0
    assert rows["n1"]["n_triangles"] == rows["n5"]["n_triangles"] == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_order_preserving_user_relabel_keeps_the_static_block(seed):
    graph, table = random_corpus(seed)
    gaps = np.random.default_rng(seed + 100).integers(1, 50, graph.n_nodes)
    rename = {v: f"id{int(k):05d}" for v, k in zip(graph.users, np.cumsum(gaps))}
    graph2, table2 = _relabel_users(graph, table, rename)
    before = _extractor(graph, table, seed=seed)
    after = _extractor(graph2, table2, seed=seed)
    assert after.node_table.order == before.node_table.order
    assert after.static_block.tobytes() == before.static_block.tobytes()


# The effective distances weigh each edge by the stories that share it, so
# these 6 columns belong to the set of stories an extractor holds, not to
# any one story; the other 32 columns are a function of one network.
EFFECTIVE = [j for j, name in enumerate(STATIC_NAMES) if name.startswith("effective_")]
PER_NETWORK = [j for j in range(len(STATIC_NAMES)) if j not in EFFECTIVE]


def _check_subset_child(parent, news_ids) -> int:
    """A `with_networks` child over some of `parent`'s own network objects
    holds the parent's per-network values for them; returns how many of its
    rows differ from the parent's in an effective column."""
    child = parent.with_networks({n: parent.networks[n] for n in news_ids})
    rows = [parent.node_table.order.index(n) for n in child.node_table.order]
    want, got = parent.static_block[rows], child.static_block
    assert got[:, PER_NETWORK].tobytes() == want[:, PER_NETWORK].tobytes()
    assert (child.node_table.identity_gram.tobytes()
            == parent.node_table.identity_gram[np.ix_(rows, rows)].tobytes())
    assert (child.node_table.triangles.total.tolist()
            == parent.node_table.triangles.total[rows].tolist())
    return int(np.any(got[:, EFFECTIVE] != want[:, EFFECTIVE], axis=1).sum())


@pytest.mark.parametrize("seed", range(30))
def test_subset_child_keeps_the_per_network_values(seed):
    graph, table = random_corpus(seed)
    ex = _extractor(graph, table, seed=seed)
    rng = np.random.default_rng(seed)
    news = ex.node_table.order
    for size in rng.integers(1, len(news) + 1, 3):
        _check_subset_child(ex, rng.choice(news, int(size), replace=False).tolist())


def test_subset_child_keeps_the_per_network_values_on_the_demo(strong_extractor):
    assert len(EFFECTIVE) == 6 and len(PER_NETWORK) == 32
    rng = np.random.default_rng(0)
    news = strong_extractor.node_table.order
    changed = sum(_check_subset_child(
        strong_extractor, rng.choice(news, int(size), replace=False).tolist())
        for size in rng.integers(10, 91, 10))
    assert changed > 0  # the effective columns move with the story set


def test_networks_flows_and_table_hold_nodes_edges_and_flows_only_as_arrays(
        small_strong_extractor):
    # No set or dict of ids or id pairs: every field that holds nodes, edges,
    # triangles or flows is a numpy array. The others hold news ids, labels
    # and sizes. Every per-user value is an array over the graph ranks.
    ex = small_strong_extractor
    table = ex.node_table
    n = ex.graph.n_nodes
    per_user = [ex.global_comm, *ex.centralities.values()]
    for scores, codes in fit_all(ex.history, n, ex.table.news_ids(), 0.5).values():
        per_user += [scores, codes]
    for values in per_user:
        assert isinstance(values, np.ndarray) and values.dtype.kind in "biuf"
        assert values.shape == (n,)
    assert table.triangles is table.triangles and table.identity_gram is not None
    # the susceptibility history is the full networks' node table, also when subsampled
    sub = ex.with_networks({n: subsample(net, "edges", 0.5, 1) for n, net in ex.networks.items()})
    assert ex.history is ex.node_table and sub.history is ex.node_table
    for lengths in list(ex.flows.values()) + list(sub.flows.values()):
        assert isinstance(lengths, np.ndarray) and lengths.dtype == np.float64
    assert [lengths.shape for lengths in ex.flows.values()] == [table.source.shape] * 2
    not_arrays = {
        DiffusionNetwork: {"news_id", "label"},
        NodeTable: {"h", "order", "labels", "triangles"},  # Triangles: checked too
        Triangles: set(),
    }
    objects = list(ex.networks.values()) + [table, table.triangles]
    for obj in objects:
        fields = vars(obj)
        if dataclasses.is_dataclass(obj):
            assert set(fields) == {f.name for f in dataclasses.fields(obj)}
        assert set(fields) > not_arrays[type(obj)], type(obj)
        for name, value in fields.items():
            if name not in not_arrays[type(obj)]:
                assert isinstance(value, np.ndarray), (type(obj).__name__, name)
                assert value.dtype.kind in "biuf", (type(obj).__name__, name)
    assert isinstance(vars(table)["triangles"], Triangles)
    assert all(isinstance(v, (str, int)) for v in (*table.order, *table.labels, table.h))


@pytest.mark.parametrize("n", [0, 1, 7])
def test_extract_of_a_row_equals_that_row_of_the_block_call(n):
    rng = np.random.default_rng(n)
    static = rng.normal(size=(n, len(STATIC_NAMES)))
    dynamic = rng.normal(size=(n, len(DYNAMIC_NAMES)))
    references = rng.random((n, 4))
    X = extract(static, dynamic, references)
    assert X.shape == (n, N_FEATURES) and X.dtype == np.float64
    for t in range(n):
        assert extract(static[t], dynamic[t], references[t]).tobytes() == X[t].tobytes()
    for names, block in ((STATIC_NAMES, static), (DYNAMIC_NAMES, dynamic),
                         (FEATURE_NAMES[-4:], references)):
        for j, name in enumerate(names):
            assert X[:, feature_index(name) - 1].tobytes() == block[:, j].tobytes()
