import numpy as np
import pytest

from newsnet.corpus import EngagementTable
from newsnet.features import FeatureExtractor, extract_matrix
from newsnet.ml.baselines import GaussianNBClassifier, KNNClassifier, MinMaxScaler
from newsnet.ml.crossval import (accuracy_from, confusion, cross_validate,
                                 encode_labels, f1_from, fit_classifier,
                                 stratified_folds)
from newsnet.ml.forest import DecisionTreeClassifier, RandomForestClassifier
from newsnet.synth import SyntheticSpec, generate

from oracles import held_out_news


def _separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 2] > 0).astype(np.int64)
    X[:, 2] += y * 3.0  # widen the margin
    return X, y


def test_forest_memorizes_training_set():
    X, y = _separable()
    clf = fit_classifier("random_forest", X, y, seed=1, params={"n_trees": 30})
    assert (clf.predict(X) == y).mean() >= 0.99


def test_forest_uses_perfect_feature():
    X = np.array([[0.0, 1.0], [0.1, 2.0], [0.0, 8.0], [0.1, 9.0]])
    y = np.array([0, 0, 1, 1])
    clf = fit_classifier("random_forest", X, y, seed=3, params={"n_trees": 50})
    assert (clf.predict(X) == y).all()
    grid = np.array([[0.05, v] for v in (0.0, 3.0, 6.0, 12.0)])
    assert list(clf.predict(grid)) == [0, 0, 1, 1]


def test_forest_deterministic():
    X, y = _separable(seed=4)
    p1 = fit_classifier("random_forest", X, y, seed=9).predict(X)
    p2 = fit_classifier("random_forest", X, y, seed=9).predict(X)
    assert (p1 == p2).all()


def test_forest_tie_breaks_to_fake():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    clf = fit_classifier("random_forest", X, y, seed=0,
                         params={"n_trees": 2, "bootstrap": False, "max_features": 1})
    # indistinguishable classes: every leaf ties, prediction must be fake
    assert (clf.predict(X) == 1).all()


def test_single_class_training_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match="single-class"):
        fit_classifier("random_forest", X, np.ones(4, dtype=int))
    with pytest.raises(ValueError, match="single-class"):
        fit_classifier("knn", X, np.zeros(4, dtype=int))


def test_decision_tree_depth_one_threshold():
    X = np.array([[0.1], [0.2], [0.8], [0.9]])
    y = np.array([0, 0, 1, 1])
    clf = fit_classifier("decision_tree", X, y, params={"max_depth": 1})
    assert (clf.predict(X) == y).all()


def test_knn_training_recall_k1():
    X, y = _separable(seed=2)
    clf = fit_classifier("knn", X, y, params={"k": 1})
    assert (clf.predict(X) == y).all()


def test_knn_equidistant_prefers_fake():
    X = np.array([[0.0], [2.0]])
    y = np.array([0, 1])
    clf = fit_classifier("knn", X, y, params={"k": 1})
    assert clf.predict(np.array([[1.0]]))[0] == 1


def test_gaussian_nb_matches_analytic_posterior():
    rng = np.random.default_rng(5)
    X0 = rng.normal(-3.0, 1.0, size=(50, 1))
    X1 = rng.normal(3.0, 1.0, size=(50, 1))
    X = np.vstack([X0, X1])
    y = np.array([0] * 50 + [1] * 50)
    clf = fit_classifier("gaussian_nb", X, y)
    assert (clf.predict(X) == y).mean() == 1.0
    # analytic oracle on the scaled axis: posterior argmax by class density
    Xs = clf.scaler.transform(X)
    mean = clf.mean_
    var = clf.var_
    for i in range(len(y)):
        ll = {c: -0.5 * (np.log(2 * np.pi * var[c]) + (Xs[i] - mean[c]) ** 2 / var[c])
              for c in (0, 1)}
        analytic = 1 if ll[1].sum() >= ll[0].sum() else 0
        assert clf.predict(X[i:i + 1])[0] == analytic


def test_minmax_scaler_constant_dimension():
    X = np.array([[1.0, 5.0], [2.0, 5.0]])
    s = MinMaxScaler().fit(X)
    out = s.transform(X)
    assert (out[:, 1] == 0.0).all()
    assert out[0, 0] == 0.0 and out[1, 0] == 1.0


def test_stratified_folds_balanced():
    labels = {f"f{i}": "fake" for i in range(10)}
    labels.update({f"t{i}": "true" for i in range(10)})
    split = stratified_folds(labels, 5, seed=3)
    for fold in range(5):
        test = held_out_news(split, fold)
        n_fake = sum(1 for n in test if labels[n] == "fake")
        n_true = len(test) - n_fake
        assert abs(n_fake - n_true) <= 1
    with pytest.raises(ValueError, match="stratify"):
        stratified_folds({"a": "fake", "b": "true"}, 5, seed=0)


def test_f1_all_fake_on_balanced_set():
    y_true = np.array([1] * 10 + [0] * 10)
    y_pred = np.ones(20, dtype=int)
    conf = confusion(y_true, y_pred)
    assert accuracy_from(conf) == 0.5
    assert f1_from(conf) == pytest.approx(2 / 3)


def test_encode_labels():
    assert list(encode_labels(["fake", "true", "fake"])) == [1, 0, 1]


def test_planted_corpus_high_accuracy(strong_report):
    assert strong_report.accuracy >= 0.95
    assert strong_report.f1 >= 0.95


def test_shuffled_labels_drop_to_chance(strong_corpus):
    rng = np.random.default_rng(13)
    news = sorted(strong_corpus.table.labels)
    labels = [strong_corpus.table.labels[n] for n in news]
    shuffled = dict(zip(news, rng.permutation(labels)))
    records = {(n, u): c for n, by_user in strong_corpus.table.counts.items()
               for u, c in by_user.items()}
    table = EngagementTable.from_records(records, shuffled)
    ex = FeatureExtractor.build(strong_corpus.graph, table, seed=3)
    report = cross_validate(ex, seed=11)
    assert abs(report.accuracy - 0.5) <= 0.15


def test_leakage_invariance_every_fold_and_theta():
    corpus = generate(SyntheticSpec(n_users=60, news_per_class=10, seed=2,
                                    spreader_ratio=2.0))
    labels = dict(corpus.table.labels)
    split = stratified_folds(labels, 5, seed=5)
    records = {(n, u): c for n, by_user in corpus.table.counts.items()
               for u, c in by_user.items()}
    ex = FeatureExtractor.build(corpus.graph, corpus.table, seed=1)
    for fold in range(5):
        flipped = dict(labels)
        for n in held_out_news(split, fold):
            flipped[n] = "true" if flipped[n] == "fake" else "fake"
        ex_flipped = FeatureExtractor.build(
            corpus.graph, EngagementTable.from_records(records, flipped), seed=1)
        train_news = split.train_news(fold)
        for theta in (0.0, 0.5, 1.0):
            assert extract_matrix(ex, train_news, theta).X.tobytes() \
                == extract_matrix(ex_flipped, train_news, theta).X.tobytes()


def test_leakage_invariance_fold_zero():
    corpus = generate(SyntheticSpec(n_users=60, news_per_class=10, seed=2,
                                    spreader_ratio=2.0))
    ex = FeatureExtractor.build(corpus.graph, corpus.table, seed=1)
    labels = dict(corpus.table.labels)
    split = stratified_folds(labels, 5, seed=5)
    train_news = split.train_news(0)
    test_news = held_out_news(split, 0)

    def run(table):
        ex_run = FeatureExtractor.build(corpus.graph, table, seed=1)
        matrix = extract_matrix(ex_run, train_news, 0.5)
        train = np.array([split.folds[n] != 0 for n in matrix.news_ids])
        X_train = matrix.X[train]
        clf = fit_classifier("random_forest", X_train,
                             encode_labels(matrix.labels)[train], seed=7)
        return X_train.tobytes(), clf.predict(matrix.X[~train])

    flipped = dict(labels)
    for n in test_news:
        flipped[n] = "true" if flipped[n] == "fake" else "fake"
    records = {(n, u): c for n, by_user in corpus.table.counts.items()
               for u, c in by_user.items()}
    table_flipped = EngagementTable.from_records(records, flipped)

    bytes_a, pred_a = run(corpus.table)
    bytes_b, pred_b = run(table_flipped)
    assert bytes_a == bytes_b
    assert (pred_a == pred_b).all()


def test_cross_validate_report_shape(strong_report):
    assert len(strong_report.fold_accuracy) == 5
    assert len(strong_report.fold_f1) == 5
    conf = strong_report.confusion
    assert conf["tp"] + conf["fp"] + conf["tn"] + conf["fn"] == 100
    data = strong_report.to_dict()
    assert 0.0 <= data["accuracy_mean"] <= 1.0
    assert 0.0 <= data["f1_mean"] <= 1.0


def test_all_classifier_kinds_run(small_strong_extractor):
    for kind in ("decision_tree", "knn", "gaussian_nb"):
        report = cross_validate(small_strong_extractor, classifier=kind, seed=4)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.accuracy >= 0.6  # planted signal should be visible to all


def test_tree_and_forest_classes():
    X, y = _separable(seed=8)
    assert isinstance(fit_classifier("decision_tree", X, y, seed=0),
                      DecisionTreeClassifier)
    assert isinstance(fit_classifier("random_forest", X, y, seed=0),
                      RandomForestClassifier)
    assert isinstance(fit_classifier("knn", X, y), KNNClassifier)
    assert isinstance(fit_classifier("gaussian_nb", X, y), GaussianNBClassifier)
    with pytest.raises(ValueError, match="unknown"):
        fit_classifier("svm", X, y)
    with pytest.raises(ValueError, match="'n_tree'"):
        fit_classifier("random_forest", X, y, params={"n_tree": 5})
