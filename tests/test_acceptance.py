"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s

The dataset-reproduction criterion is conditional: it runs only when
NEWSNET_DATA_DIR points at a directory containing politifact/ and buzzfeed/
subdirectories with the documented edges.csv / engagements.csv / labels.csv
files, and is skipped otherwise.
"""

import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from newsnet.centrality import centralities
from newsnet.corpus import EngagementTable, SocialGraph, corpus_stats, load_corpus
from newsnet.diffusion import build_all_networks
from newsnet.distances import flow_matrix
from newsnet.experiments import (ExperimentConfig, run_early_detection,
                                 run_threshold_sweep)
from newsnet.features import (DYNAMIC_NAMES, FeatureExtractor, NodeTable, dynamic_features,
                              extract_matrix, pattern_mask)
from newsnet.ml.crossval import (cross_validate, encode_labels, evaluate_masks,
                                 fit_classifier, stratified_folds)
from newsnet.ml.relief import relief_rank
from newsnet.susceptibility import BY_FREQUENCY, BY_NEWS, fit_all
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate
from newsnet.triads import TRIAD_CLASSES
from newsnet.util import write_csv
from newsnet.wl import wl_kernel, wl_kernel_normalized

from oracles import (ALL_FEATURES, LabeledGraph, WLDictionary, brute_census, brute_ego_delta,
                     brute_flow, brute_induced_edges, by_id, dense_betweenness, dense_closeness,
                     enumerate_triangles, flow_lengths, graph_with_users, held_out_news,
                     id_network, id_records, random_corpus, string_graph, wl_signature)
from oracles import fit_all as dict_fit_all
from oracles import flow_matrix as dict_flow_matrix

EGO_DELTA_CLASSES = ("nn", "ns", "sn", "ss", "delta_pos", "delta_zero", "delta_neg")


def test_criterion_1_oracle_equivalence():
    start = time.time()
    for seed in range(100):
        graph, table = random_corpus(seed)
        nodes = list(graph.users)
        networks = build_all_networks(graph, table)
        nets = [networks[n] for n in sorted(networks)]

        scores = centralities(graph)
        of = {measure: by_id(graph.users, values) for measure, values in scores.items()}
        edges = string_graph(graph).edges
        bc = dense_betweenness(nodes, edges)
        out_cl = dense_closeness(nodes, edges, "out")
        in_cl = dense_closeness(nodes, edges, "in")
        for v in nodes:
            assert abs(of["betweenness"][v] - bc[v]) <= 1e-9
            assert abs(of["out_closeness"][v] - out_cl[v]) <= 1e-9
            assert abs(of["in_closeness"][v] - in_cl[v]) <= 1e-9
        assert abs(sum(of["pagerank"].values()) - 1.0) <= 1e-9
        if graph.n_edges:
            for measure in ("hub", "authority"):
                norm = sum(x * x for x in of[measure].values()) ** 0.5
                assert abs(norm - 1.0) <= 1e-9

        ids = [id_network(graph.users, net) for net in nets]
        ex = FeatureExtractor(graph, table, networks, scores, None, seed=seed)
        for definition in ("shared_news", "shared_frequency"):
            slow = dict_flow_matrix(ids, definition)
            assert slow.flows == brute_flow(graph, ids, definition)
            assert flow_lengths(graph.users, ex.node_table, ex.flows[definition]) \
                == slow.lengths

        models = dict_fit_all(graph, table, table.news_ids(), 0.5)
        node_table = ex.node_table
        block = dynamic_features(node_table, fit_all(ex.history, graph.n_nodes,
                                                     table.news_ids(), 0.5))
        triangles = node_table.triangles
        oriented = np.bincount(triangles.network, minlength=triangles.total.size)
        for t, (net, row) in enumerate(zip(ids, block.tolist())):
            assert net.edges == brute_induced_edges(graph, net.nodes)
            values = dict(zip(DYNAMIC_NAMES, row))
            index = enumerate_triangles(net)
            assert (index.total, index.reciprocal, len(index.oriented)) == \
                (triangles.total[t], triangles.total[t] - oriented[t], oriented[t])
            for method in (BY_NEWS, BY_FREQUENCY):
                model = models[method]
                tag = "news" if method == BY_NEWS else "freq"
                counts = {name: values[f"n_triad_{name}_{tag}"] for name in TRIAD_CLASSES}
                brute = brute_census(net, model)
                assert index.total == brute["total"]
                assert index.reciprocal == brute["reciprocal"]
                assert len(index.oriented) - sum(counts.values()) == brute["unknown"]
                for name in TRIAD_CLASSES:
                    assert counts[name] == brute.get(name, 0)
                oracle = brute_ego_delta(net, model)
                for cls in EGO_DELTA_CLASSES:
                    assert values[f"n_edges_{cls}_{tag}"] == oracle[cls]
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[acceptance 1] oracle equivalence on 100 corpora: "
          f"PASS ({elapsed:.1f} s)")


def test_criterion_2_formula_checks():
    graph = graph_with_users([], ["v"])
    table = EngagementTable.from_records(graph, {("f1", "v"): 1, ("t1", "v"): 3},
                                         {"f1": "fake", "t1": "true"})
    history = NodeTable(build_all_networks(graph, table))
    training = {"f1", "t1"}
    v = graph.users.index("v")
    vectors = fit_all(history, graph.n_nodes, training, 0.5)
    assert vectors[BY_NEWS][0][v] == 0.5
    assert vectors[BY_FREQUENCY][0][v] == 0.25

    # sole inflow: distance exactly 1
    graph = SocialGraph.from_edges([("a", "b")])
    t2 = EngagementTable.from_records(graph, {("n1", "a"): 1, ("n1", "b"): 1},
                                      {"n1": "fake"})
    nodes = NodeTable(build_all_networks(graph, t2))
    flow = flow_lengths(graph.users, nodes, flow_matrix(graph, nodes)["shared_news"])
    assert abs(flow[("a", "b")] - 1.0) <= 1e-12

    for seed in range(20):
        g, t = random_corpus(seed)
        nodes = NodeTable(build_all_networks(g, t))
        for definition in ("shared_news", "shared_frequency"):
            lengths = flow_lengths(g.users, nodes, flow_matrix(g, nodes)[definition])
            assert lengths
            for length in lengths.values():
                assert length >= 1.0 - 1e-12
    print("\n[acceptance 2] susceptibility and effective-distance formulas: PASS")


def test_criterion_3_wl_kernel():
    rng = random.Random(23)

    def rand_graph(idx):
        n = rng.randint(3, 10)
        nodes = tuple(f"g{idx}n{i}" for i in range(n))
        adjacency = {v: set() for v in nodes}
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if rng.random() < 0.4:
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        return LabeledGraph(nodes=nodes,
                            adjacency={v: tuple(sorted(adjacency[v]))
                                       for v in nodes},
                            labels={v: rng.choice("ABC") for v in nodes})

    graphs = [rand_graph(i) for i in range(20)]
    dictionary = WLDictionary()
    sigs = [wl_signature(g, 3, dictionary) for g in graphs]
    gram = np.array([[wl_kernel(a, b) for b in sigs] for a in sigs])
    assert np.linalg.eigvalsh(gram).min() >= -1e-8
    for sig in sigs:
        assert abs(wl_kernel_normalized(sig, sig) - 1.0) <= 1e-12

    base = graphs[0]
    renamed_nodes = tuple(f"x{i}" for i in range(len(base.nodes)))
    rename = dict(zip(base.nodes, renamed_nodes))
    iso = LabeledGraph(nodes=renamed_nodes,
             adjacency={rename[v]: tuple(sorted(rename[u] for u in base.adjacency[v]))
                        for v in base.nodes},
             labels={rename[v]: base.labels[v] for v in base.nodes})
    shared = WLDictionary()
    assert wl_signature(base, 3, shared).histograms \
        == wl_signature(iso, 3, shared).histograms
    print("\n[acceptance 3] WL kernel PSD, normalization, isomorphism: PASS")


def test_criterion_4_leakage_safety():
    corpus = generate(SyntheticSpec(n_users=60, news_per_class=10, seed=2,
                                    spreader_ratio=2.0))
    labels = dict(corpus.table.labels)
    split = stratified_folds(labels, 5, seed=5)
    train_news = split.train_news(0)
    test_news = held_out_news(split, 0)

    def run(table):
        ex = FeatureExtractor.build(corpus.graph, table, seed=1)
        matrix = extract_matrix(ex, train_news, 0.5)
        train = np.array([split.folds[n] != 0 for n in matrix.news_ids])
        X_train = matrix.X[train]
        clf = fit_classifier("random_forest", X_train,
                             encode_labels(matrix.labels)[train], seed=7)
        return X_train.tobytes(), clf.predict(matrix.X[~train])

    flipped = dict(labels)
    for n in test_news:
        flipped[n] = "true" if flipped[n] == "fake" else "fake"
    records = id_records(corpus.graph, corpus.table)
    bytes_a, pred_a = run(corpus.table)
    bytes_b, pred_b = run(EngagementTable.from_records(corpus.graph, records, flipped))
    assert bytes_a == bytes_b
    assert (pred_a == pred_b).all()
    print("\n[acceptance 4] leakage safety (byte-identical training matrix): PASS")


def test_criterion_5_planted_signal():
    start = time.time()
    strong = generate(SyntheticSpec(n_users=200, news_per_class=50, seed=7,
                                    **STRONG_EFFECTS))
    strong_ex = FeatureExtractor.build(strong.graph, strong.table, seed=3)
    strong_report = cross_validate(strong_ex, mask=ALL_FEATURES, seed=11)
    assert strong_report.accuracy >= 0.90
    assert strong_report.f1 >= 0.90

    null = generate(SyntheticSpec(n_users=200, news_per_class=50, seed=7))
    null_ex = FeatureExtractor.build(null.graph, null.table, seed=3)
    null_report = cross_validate(null_ex, mask=ALL_FEATURES, seed=11)
    assert abs(null_report.accuracy - 0.5) <= 0.15
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\n[acceptance 5] planted-signal detection: PASS "
          f"(strong acc={strong_report.accuracy:.3f} f1={strong_report.f1:.3f}, "
          f"null acc={null_report.accuracy:.3f}, {elapsed:.0f} s)")


def _dataset_dir(name):
    root = os.environ.get("NEWSNET_DATA_DIR")
    if not root:
        return None
    path = Path(root) / name
    required = ["edges.csv", "engagements.csv", "labels.csv"]
    if all((path / f).is_file() for f in required):
        return path
    return None


_EXPECTED_STATS = {
    "politifact": dict(n_users=23865, n_follow_edges=574744,
                       n_engagement_records=32791, n_news=240,
                       n_fake=120, n_true=120),
    "buzzfeed": dict(n_users=15257, n_follow_edges=634750,
                     n_engagement_records=22779, n_news=182,
                     n_fake=91, n_true=91),
}
_EXPECTED_SCORES = {"politifact": (0.929, 0.932), "buzzfeed": (0.835, 0.842)}
_SUSCEPTIBILITY_TOP = {
    "mean_susceptibility_news", "mean_susceptibility_freq",
    "median_susceptibility_news", "median_susceptibility_freq",
}


@pytest.mark.parametrize("name", ["politifact", "buzzfeed"])
def test_criterion_6_dataset_reproduction(name):
    path = _dataset_dir(name)
    if path is None:
        pytest.skip(f"{name} corpus not available (set NEWSNET_DATA_DIR)")
    graph, table = load_corpus(path / "edges.csv", path / "engagements.csv",
                               path / "labels.csv")
    stats = corpus_stats(graph, table)
    for key, expected in _EXPECTED_STATS[name].items():
        assert stats[key] == expected, key

    extractor = FeatureExtractor.build(graph, table, seed=3)
    report = cross_validate(extractor, mask=ALL_FEATURES, seed=11)
    acc_target, f1_target = _EXPECTED_SCORES[name]
    assert abs(report.accuracy - acc_target) <= 0.05
    assert abs(report.f1 - f1_target) <= 0.05

    matrix = extract_matrix(extractor, table.news_ids(), 0.5)
    assert np.isfinite(matrix.X).all()

    singles = {p: pattern_mask([p]) for p in
               ("more_spreaders", "farther_distance", "stronger_engagement")}
    reports = evaluate_masks(extractor, singles, (0.5,), classifier="random_forest",
                             seed=11)
    assert reports[0.5, "more_spreaders"].accuracy \
        > reports[0.5, "farther_distance"].accuracy
    assert reports[0.5, "stronger_engagement"].accuracy \
        > reports[0.5, "farther_distance"].accuracy

    ranking = relief_rank(matrix.X, encode_labels(matrix.labels), seed=11)
    top5 = {feature_index_to_name(f) for f, _ in ranking[:5]}
    assert len(top5 & _SUSCEPTIBILITY_TOP) >= 3
    print(f"\n[acceptance 6] {name}: PASS (acc={report.accuracy:.3f}, "
          f"f1={report.f1:.3f})")


def feature_index_to_name(zero_based):
    from newsnet.features import FEATURE_NAMES

    return FEATURE_NAMES[zero_based]


def test_criterion_7_experiment_invariants(tmp_path, small_strong_extractor):
    config = ExperimentConfig(seed=11, repetitions=2,
                              theta_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
                              sweep_subsets=("farther_distance",),
                              proportions=(1.0,), modes=("nodes",))
    config.validate()

    header, rows = run_threshold_sweep(small_strong_extractor, config)
    results = {(r[2], r[3]) for r in rows}
    assert len(results) == 1  # constant across theta, exact equality

    header, early = run_early_detection(small_strong_extractor, config)
    full = cross_validate(small_strong_extractor, mask=ALL_FEATURES, seed=config.seed)
    assert early[0][3] == full.accuracy
    assert early[0][4] == full.f1

    # byte reproducibility from (config, seed): fresh corpus + extractor each time
    spec = SyntheticSpec(n_users=80, news_per_class=15, seed=21, **STRONG_EFFECTS)
    files = []
    for run in ("a", "b"):
        corpus = generate(spec)
        extractor = FeatureExtractor.build(corpus.graph, corpus.table, seed=5)
        header, rows = run_threshold_sweep(extractor, config)
        path = tmp_path / f"sweep_{run}.csv"
        write_csv(path, header, rows)
        files.append(path.read_bytes())
    assert files[0] == files[1]
    print("\n[acceptance 7] experiment invariants (constant sweep, exact p=1.0, "
          "byte-reproducible runs): PASS")
