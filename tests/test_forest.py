"""The presorted, tree-batched forest against the recursive reference trees.

Every comparison is exact: the same split features, bit-identical thresholds
(compared by their hex form, which also tells -0.0 from 0.0), the same leaf
predictions and the same `predict` output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet.experiments import DEFAULT_SWEEP_SUBSETS, SUBSET_BY_NAME
from newsnet.features import extract_matrix, pattern_mask
from newsnet.ml.crossval import encode_labels, fit_classifier, stratified_folds
from newsnet.ml.forest import (DecisionTreeClassifier, RandomForestClassifier, _draws,
                               _Presorted, _roots)
from newsnet.util import derive_seed

from oracles import ReferenceDecisionTree, ReferenceRandomForest, _gini_best_split, _Leaf

KINDS = ("ties", "continuous", "inf", "nan")
FOREST_CASES = (
    {},
    {"bootstrap": False},
    {"max_depth": 0},
    {"max_depth": 1, "max_features": 1},
    {"max_depth": 2, "min_leaf": 2},
    {"max_depth": 5, "min_leaf": 3, "max_features": 3},
    {"max_features": 100, "bootstrap": False},
    {"min_leaf": 2, "max_features": 2},
    {"max_features": 7},  # d <= 7: every column a candidate, with bootstrap
    {"max_depth": 2, "min_leaf": 2, "max_features": 8},
)
TREE_CASES = (
    {},
    {"max_depth": 0},
    {"max_depth": 1},
    {"min_leaf": 3},
    {"max_depth": 2},
    {"max_depth": 3, "min_leaf": 2},
    {"min_leaf": 2},
)


def reference_structure(node):
    if isinstance(node, _Leaf):
        return node.prediction
    return (node.feature, node.threshold.hex(),
            reference_structure(node.left), reference_structure(node.right))


def structure(trees, node):
    if trees.feature[node] < 0:
        return int(trees.prediction[node])
    return (int(trees.feature[node]), float(trees.threshold[node]).hex(),
            structure(trees, trees.left[node]), structure(trees, trees.right[node]))


def assert_same_forest(fast, ref, X):
    assert ([structure(fast._trees, t) for t in range(fast._trees.n_trees)]
            == [reference_structure(tree._root) for tree in ref._trees])
    assert np.array_equal(fast.predict(X), ref.predict(X))


def assert_same_tree(fast, ref, X):
    assert structure(fast._trees, 0) == reference_structure(ref._root)
    assert np.array_equal(fast.predict(X), ref.predict(X))


def random_matrix(seed, kind):
    """Seeded (X, y, X_new); both classes present, column 0 duplicated last."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(6, 40)), int(rng.integers(1, 8))
    if kind == "continuous":
        X = rng.normal(size=(n + 10, d))
    else:
        X = rng.integers(0, 4, size=(n + 10, d)).astype(np.float64)
    if kind in ("inf", "nan"):
        X[rng.random(X.shape) < 0.15] = np.inf
        X[rng.random(X.shape) < 0.15] = -np.inf
    if kind == "nan":
        X[rng.random(X.shape) < 0.2] = np.nan
    if d > 1:
        X[:, -1] = X[:, 0]  # equal Gini on two candidates: the first must win
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    return X[:n], y, X[n:]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", range(len(FOREST_CASES)))
@pytest.mark.parametrize("seed", range(3))
def test_forest_equals_reference(kind, case, seed):
    X, y, X_new = random_matrix(100 * seed + case, kind)
    params = dict(FOREST_CASES[case], n_trees=12, seed=seed)
    fast = RandomForestClassifier(**params).fit(X, y)
    ref = ReferenceRandomForest(**params).fit(X, y)
    assert_same_forest(fast, ref, np.vstack([X, X_new]))


def test_cached_draws_are_read_only_and_reused():
    # a refit of the same shape (another mask or threshold of one fold) reads
    # the cached draws, extends them only past what earlier fits drew, and
    # still grows the reference forest
    rng = np.random.default_rng(5)
    X, y = rng.normal(size=(30, 6)), rng.integers(0, 2, size=30)
    RandomForestClassifier(n_trees=12, seed=4, max_depth=1).fit(X[:, ::-1], y)
    draws = _draws(4, 12, 6, 3)
    assert _draws(4, 12, 6, 3) is draws
    assert _roots(4, 12, 30, True) is _roots(4, 12, 30, True)
    for array in (draws.stream, _roots(4, 12, 30, True)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1
    before, filled = draws.stream.copy(), list(draws.filled)
    fast = RandomForestClassifier(n_trees=12, seed=4).fit(X, y)
    assert_same_forest(fast, ReferenceRandomForest(n_trees=12, seed=4).fit(X, y), X)
    assert not draws.stream.flags.writeable
    for t in range(12):
        assert draws.filled[t] >= filled[t]
        assert np.array_equal(draws.stream[t, :filled[t]], before[t, :filled[t]])
        split_rng = np.random.default_rng(derive_seed(derive_seed(4, "tree", t), "splits"))
        fresh = [np.sort(split_rng.choice(6, size=3, replace=False))
                 for _ in range(draws.filled[t])]
        assert np.array_equal(draws.stream[t, :draws.filled[t]], np.reshape(fresh, (-1, 3)))


def test_refit_of_a_seen_shape_makes_no_generator(monkeypatch):
    rng = np.random.default_rng(6)
    X, y = rng.normal(size=(40, 9)), rng.integers(0, 2, size=40)
    made = []

    def counting(real):
        def make(*args, **kwargs):
            made.append(real)
            return real(*args, **kwargs)
        return make

    monkeypatch.setattr(np.random, "Generator", counting(np.random.Generator))
    monkeypatch.setattr(np.random, "default_rng", counting(np.random.default_rng))
    seed = 987654321
    RandomForestClassifier(n_trees=20, seed=seed).fit(X, y)
    assert made  # the first fit of a shape makes the bootstrap and split generators
    made.clear()
    # the same rows per tree at depth <= 1 need no draw the first fit lacked
    for X_refit, depth in ((X.copy(), None), (X[:, ::-1], 1), (X * 2.0, 1)):
        params = dict(n_trees=20, seed=seed, max_depth=depth)
        fast = RandomForestClassifier(**params).fit(X_refit, y)
        assert made == []
        assert_same_forest(fast, ReferenceRandomForest(**params).fit(X_refit, y), X)
        made.clear()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(8, 30), st.integers(2, 7), st.data())
def test_property_refits_equal_the_reference(seed, n, d, data):
    # shallow, deep, shallow again: the deep fit extends the cached streams
    # the first one made, the third reads them; then any further depths
    k = data.draw(st.integers(1, d - 1))
    depths = [1, None, 1] + data.draw(
        st.lists(st.one_of(st.none(), st.integers(0, 4)), max_size=3))
    rng = np.random.default_rng(seed)
    for depth in depths:
        X = rng.normal(size=(n, d)).round(1)  # ties across rows
        y = rng.integers(0, 2, size=n)
        y[:2] = (0, 1)
        params = dict(n_trees=4, max_features=k, max_depth=depth, seed=seed)
        fast = RandomForestClassifier(**params).fit(X, y)
        assert_same_forest(fast, ReferenceRandomForest(**params).fit(X, y), X)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", range(len(TREE_CASES)))
def test_tree_equals_reference(kind, case):
    X, y, X_new = random_matrix(1000 + case, kind)
    params = TREE_CASES[case]
    fast = DecisionTreeClassifier(**params).fit(X, y)
    ref = ReferenceDecisionTree(**params).fit(X, y)
    assert_same_tree(fast, ref, np.vstack([X, X_new]))


@pytest.mark.parametrize("params", [{}, {"max_depth": 1}, {"max_depth": None, "min_leaf": 2}])
def test_decision_tree_baseline_equals_reference(params):
    X, y, X_new = random_matrix(7, "ties")
    fast = fit_classifier("decision_tree", X, y, seed=5, params=params)
    ref = ReferenceDecisionTree(seed=5, **params).fit(X, y)
    assert_same_tree(fast, ref, np.vstack([X, X_new]))


def count_nodes(monkeypatch):
    """Count the nodes the separating check settles and those sent to best_splits."""
    counts = {"settled": 0, "searched": 0}
    check, search = _Presorted.separating_splits, _Presorted.best_splits

    def counting_check(self, W, F, min_leaf):
        found = check(self, W, F, min_leaf)
        counts["settled"] += int((found[0] >= 0).sum())
        return found

    def counting_search(self, W, F, min_leaf):
        counts["searched"] += len(W)
        return search(self, W, F, min_leaf)

    monkeypatch.setattr(_Presorted, "separating_splits", counting_check)
    monkeypatch.setattr(_Presorted, "best_splits", counting_search)
    return counts


def no_separating_cut(self, W, F, min_leaf):
    """The check reporting nothing: every node goes through best_splits."""
    none = np.zeros(len(W), dtype=np.int64)
    return none - 1, np.zeros(len(W)), none, none.astype(bool)


def test_strong_corpus_fold_under_sweep_masks(strong_extractor, monkeypatch):
    counts = count_nodes(monkeypatch)
    labels = {n: strong_extractor.table.labels[n] for n in strong_extractor.networks}
    split = stratified_folds(labels, 5, seed=11)
    matrix = extract_matrix(strong_extractor, split.train_news(0), 0.5)
    train = np.array([split.folds[n] != 0 for n in matrix.news_ids])
    X_train, X_test = matrix.X[train], matrix.X[~train]
    y_train = encode_labels(matrix.labels)[train]
    seed = derive_seed(11, "clf", "random_forest", 0)
    for name in DEFAULT_SWEEP_SUBSETS:
        cols = [i - 1 for i in pattern_mask(SUBSET_BY_NAME[name])]
        fast = fit_classifier("random_forest", X_train[:, cols], y_train, seed=seed)
        ref = ReferenceRandomForest(seed=seed).fit(X_train[:, cols], y_train)
        assert_same_forest(fast, ref, X_test[:, cols])
    # most searched nodes of these forests have a cut that separates the classes
    assert counts["settled"] > counts["searched"] > 0


@pytest.mark.parametrize("lo,hi", [(-np.inf, 5.0), (-np.inf, np.inf),
                                   (1.0, np.nextafter(1.0, 2.0)), (1e308, 1.7e308)])
def test_threshold_separates_when_the_midpoint_does_not(lo, hi):
    # (lo + hi) / 2 is -inf, NaN, lo itself or inf here: no row would change
    # side. The depth cap turns a regression into a failure instead of a hang.
    X, y = np.array([[lo], [hi]]), np.array([0, 1])
    fast = DecisionTreeClassifier(max_depth=8).fit(X, y)
    ref = ReferenceDecisionTree(max_depth=8).fit(X, y)
    assert ref._root.threshold == hi
    assert_same_tree(fast, ref, X)
    assert np.array_equal(fast.predict(X), y)


VALUES = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, np.inf, np.nan])


@st.composite
def small_problems(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(VALUES, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = (0, 1)
    params = {
        "n_trees": draw(st.integers(1, 5)),
        "bootstrap": draw(st.booleans()),
        "max_depth": draw(st.one_of(st.none(), st.integers(0, 3))),
        "min_leaf": draw(st.integers(1, 3)),
        "max_features": draw(st.one_of(st.just("sqrt"), st.integers(1, 5))),
        "seed": draw(st.integers(0, 2 ** 32)),
    }
    return X, y, params


@given(small_problems())
def test_property_forest_equals_reference(problem):
    X, y, params = problem
    fast = RandomForestClassifier(**params).fit(X, y)
    ref = ReferenceRandomForest(**params).fit(X, y)
    assert_same_forest(fast, ref, X)


@given(small_problems())
def test_property_decision_tree_is_the_grown_whole_tree(problem):
    # one tree on every row, every feature a candidate: the reference tree
    X, y, params = problem
    depth, min_leaf = params["max_depth"], params["min_leaf"]
    tree = DecisionTreeClassifier(max_depth=depth, min_leaf=min_leaf).fit(X, y)
    ref = ReferenceDecisionTree(max_depth=depth, min_leaf=min_leaf).fit(X, y)
    assert_same_tree(tree, ref, X)
    assert tree.predict(X).dtype == np.int64


def degenerate_matrix(kind, seed):
    """Seeded (X, y, min_leaf) where few or no cuts are valid, both classes present."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(4, 24)), int(rng.integers(1, 6))
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    min_leaf = 1
    if kind == "constant":  # every column holds one value
        X[:] = rng.normal(size=d)
    elif kind == "no_cut":  # one row apart per column: min_leaf 2 keeps it there
        # unless a bootstrap repeats it
        X[:] = 0.0
        X[rng.integers(0, n, size=d), np.arange(d)] = 1.0
        min_leaf = 2
    elif kind == "nan_columns":  # whole NaN columns next to partly NaN ones
        X[:, rng.random(d) < 0.5] = np.nan
        X[rng.random(X.shape) < 0.3] = np.nan
    elif kind == "half_leaf":  # only cuts at the middle are valid
        X = rng.normal(size=(n, d)).round(1)
        min_leaf = n // 2
    y = rng.integers(0, 2, size=n)
    y[:2] = (0, 1)
    return X, y, min_leaf


DEGENERATE = ("constant", "no_cut", "nan_columns", "half_leaf")


@pytest.mark.parametrize("kind", DEGENERATE)
@pytest.mark.parametrize("seed", range(10))
def test_best_splits_equal_the_recursive_oracle(kind, seed):
    # Every node's first best (Gini, feature, threshold) equals the oracle's
    # search over that node's rows, one per unit of weight, whether no cut,
    # a few cuts or all of them are valid.
    X, y, min_leaf = degenerate_matrix(kind, seed)
    n, d = X.shape
    rng = np.random.default_rng(seed)
    W = np.vstack([np.ones(n, dtype=np.int64),
                   rng.multinomial(n, np.full(n, 1.0 / n), size=3),
                   rng.integers(0, 2, size=(3, n))])
    F = np.sort(np.argsort(rng.random((len(W), d)), axis=1)[:, :max(1, d - 1)], axis=1)
    ginis, features, thresholds = _Presorted(X, y).best_splits(W, F, min_leaf)
    for w, f, gini, feature, threshold in zip(W, F, ginis, features, thresholds):
        rows = np.repeat(np.arange(n), w)
        want = _gini_best_split(X, y, rows, f.tolist(), min_leaf)
        assert (float(gini), int(feature)) == want[:2]
        if feature >= 0:
            assert float(threshold).hex() == want[2].hex()
        if kind == "constant" or (kind == "no_cut" and w.max() <= 1):
            assert feature == -1 and gini == np.inf


@pytest.mark.parametrize("kind", DEGENERATE)
@pytest.mark.parametrize("seed", range(5))
def test_forest_on_degenerate_columns_equals_reference(kind, seed):
    X, y, min_leaf = degenerate_matrix(kind, seed)
    for params in ({"min_leaf": min_leaf}, {"min_leaf": min_leaf, "bootstrap": False}):
        params = dict(params, n_trees=8, seed=seed)
        fast = RandomForestClassifier(**params).fit(X, y)
        assert_same_forest(fast, ReferenceRandomForest(**params).fit(X, y), X)
    fast = DecisionTreeClassifier(min_leaf=min_leaf).fit(X, y)
    assert_same_tree(fast, ReferenceDecisionTree(min_leaf=min_leaf).fit(X, y), X)


NAN, INF = np.nan, np.inf
# Columns where a cut next to NaN or inf is valid or not, as (X, y): the
# next-value scan ends in NaN where only NaN rows follow, and that alone
# must reject the cut after the last number.
SENTINEL_CASES = {
    # the cut between 2 and the NaN rows would separate the classes
    "numbers_then_nan": ([[0.0], [1.0], [2.0], [NAN], [NAN]], [0, 0, 0, 1, 1]),
    # a finite value followed only by +inf: that cut is valid
    "finite_then_inf": ([[1.0], [1.0], [INF], [INF], [NAN]], [0, 0, 1, 1, 1]),
    "neg_inf_next_to_nan": ([[-INF], [-INF], [NAN], [NAN]], [0, 0, 1, 1]),
    # column 0's present rows are all NaN under some weights; column 1 cuts
    "present_rows_all_nan": ([[0.0, 0.0], [1.0, 1.0], [NAN, 0.0], [NAN, 1.0],
                              [NAN, 0.0], [NAN, 1.0]], [0, 1, 0, 1, 1, 1]),
}


@pytest.mark.parametrize("case", sorted(SENTINEL_CASES))
def test_best_splits_next_to_nan_and_inf_equal_the_oracle(case):
    X, y = (np.array(a) for a in SENTINEL_CASES[case])
    n, d = X.shape
    rng = np.random.default_rng(0)
    W = np.vstack([np.ones(n, dtype=np.int64), np.eye(n, dtype=np.int64)[::-1].cumsum(axis=0),
                   rng.integers(0, 3, size=(20, n))])
    F = np.broadcast_to(np.arange(d), (len(W), d))
    for min_leaf in (1, 2):
        ginis, features, thresholds = _Presorted(X, y).best_splits(W, F, min_leaf)
        for w, gini, feature, threshold in zip(W, ginis, features, thresholds):
            rows = np.repeat(np.arange(n), w)
            want = _gini_best_split(X, y, rows, list(range(d)), min_leaf)
            assert (float(gini), int(feature)) == want[:2]
            if want[1] < 0:
                assert gini == np.inf and feature == -1
            else:
                assert float(threshold).hex() == want[2].hex()
        tree = DecisionTreeClassifier(min_leaf=min_leaf).fit(X, y)
        assert_same_tree(tree, ReferenceDecisionTree(min_leaf=min_leaf).fit(X, y), X)


# Small problems for the separating check, as (X, y, min_leaf, settled):
# settled is the number of nodes the check settles in a DecisionTreeClassifier
# fit. The fit must equal both the reference and a fit whose every node goes
# through best_splits.
SEPARATING_CASES = {
    # NaN rows of the upper class go right with it
    "nan_in_upper": ([[0.0], [1.0], [2.0], [3.0], [NAN], [4.0]], [0, 0, 0, 1, 1, 1], 1, 1),
    "nan_in_upper_fake_lower": ([[5.0], [NAN], [9.0], [1.0], [2.0], [0.5]],
                                [0, 0, 0, 1, 1, 1], 1, 1),
    # no number in the upper class: no cut has it on the right
    "upper_all_nan": ([[0.0], [1.0], [2.0], [NAN], [NAN], [NAN]], [0, 0, 0, 1, 1, 1], 1, 0),
    # a NaN row of the lower class goes right, with the upper class
    "nan_in_lower": ([[0.0], [NAN], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 1, 1, 1], 1, 0),
    "neg_inf_then_pos_inf": ([[-INF], [-INF], [INF], [INF]], [0, 0, 1, 1], 1, 1),
    "neg_inf_then_finite": ([[-INF], [5.0], [5.0]], [0, 1, 1], 1, 1),
    "finite_then_pos_inf": ([[INF], [-3.0], [INF]], [1, 0, 1], 1, 1),
    "midpoint_overflows": ([[1.7e308], [1e308], [1e308]], [1, 0, 0], 1, 1),
    # after -inf the threshold is the zero itself, 0.0 once fit has
    # turned -0.0 into 0.0, whichever tied row comes first
    "neg_inf_then_signed_zeros": ([[-INF], [0.0], [-0.0]], [0, 1, 1], 1, 1),
    "neg_inf_then_zeros_other_order": ([[-INF], [-0.0], [0.0]], [0, 1, 1], 1, 1),
    # two separating columns: the first wins, whichever class is lower in each
    "two_real_lower": ([[0.0, 10.0], [1.0, 11.0], [5.0, 20.0], [6.0, 21.0]], [0, 0, 1, 1], 1, 1),
    "two_fake_lower": ([[0.0, 10.0], [1.0, 11.0], [5.0, 20.0], [6.0, 21.0]], [1, 1, 0, 0], 1, 1),
    "fake_lower_then_real_lower": ([[0.0, 20.0], [1.0, 21.0], [5.0, 10.0], [6.0, 11.0]],
                                   [1, 1, 0, 0], 1, 1),
    "two_in_one_block": ([[0.0, 0.0, 10.0], [1.0, 1.0, 11.0], [0.0, 5.0, 20.0], [1.0, 6.0, 21.0]],
                         [0, 0, 1, 1], 1, 1),
    # a later column separates, the first does not
    "second_column_separates": ([[0.0, 10.0], [5.0, 11.0], [1.0, 20.0], [6.0, 21.0]],
                                [0, 0, 1, 1], 1, 1),
    # the candidates are checked in blocks (1, 3, the rest): a separating
    # column in the last block, and one there after a first separating column
    # the check must leave to the search (one fake row, min_leaf 2)
    "sixth_column_separates": ([[0.0, 0.0, 1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 1.0, 0.0, 2.0],
                                [2.0, 0.0, 1.0, 1.0, 0.0, 3.0], [0.5, 1.0, 0.0, 0.0, 1.0, 4.0]],
                               [0, 0, 1, 1], 1, 1),
    "left_to_search_before_sixth_column": ([[0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
                                            [1.0, 1.0, 0.0, 1.0, 0.0, 2.0],
                                            [2.0, 0.0, 1.0, 1.0, 0.0, 3.0],
                                            [3.0, 1.0, 0.0, 0.0, 1.0, 4.0],
                                            [9.0, 1.0, 1.0, 0.0, 1.0, 5.0]],
                                           [0, 0, 0, 0, 1], 2, 0),
    # min_leaf above the smaller class count: the separating cut is invalid
    "min_leaf_above_fake_count": ([[0.0], [1.0], [2.0], [3.0], [9.0]], [0, 0, 0, 0, 1], 2, 0),
    "min_leaf_at_fake_count": ([[0.0], [1.0], [2.0], [8.0], [9.0]], [0, 0, 0, 1, 1], 2, 1),
}


@pytest.mark.parametrize("case", sorted(SEPARATING_CASES))
def test_separating_check_equals_the_full_search(case, monkeypatch):
    X, y, min_leaf, settled = SEPARATING_CASES[case]
    X, y = np.array(X), np.array(y)
    X_new = np.vstack([X, X * 0.5, -X, np.full((1, X.shape[1]), NAN)])
    ref = ReferenceDecisionTree(min_leaf=min_leaf).fit(X + 0.0, y)
    with monkeypatch.context() as patch:
        counts = count_nodes(patch)
        fast = DecisionTreeClassifier(min_leaf=min_leaf).fit(X, y)
    assert counts["settled"] == settled
    with monkeypatch.context() as patch:
        patch.setattr(_Presorted, "separating_splits", no_separating_cut)
        full = DecisionTreeClassifier(min_leaf=min_leaf).fit(X, y)
    assert_same_tree(fast, ref, X_new)
    assert_same_tree(full, ref, X_new)
    params = dict(n_trees=6, min_leaf=min_leaf, max_features=X.shape[1], seed=3)
    fast = RandomForestClassifier(**params).fit(X, y)
    with monkeypatch.context() as patch:
        patch.setattr(_Presorted, "separating_splits", no_separating_cut)
        full = RandomForestClassifier(**params).fit(X, y)
    assert ([structure(fast._trees, t) for t in range(6)]
            == [structure(full._trees, t) for t in range(6)])
    assert np.array_equal(fast.predict(X_new), full.predict(X_new))
    # the reference takes a tied zero's sign from its bootstrap row order
    assert_same_forest(fast, ReferenceRandomForest(**params).fit(X + 0.0, y), X_new)


NUMBERS = [-np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, np.inf]


@st.composite
def planted_problems(draw):
    # small_problems with one column that separates the classes: the lower
    # class takes numbers below a cut, the upper one numbers above it or NaN
    X, y, params = draw(small_problems())
    cut = draw(st.integers(1, len(NUMBERS) - 1))
    below = st.sampled_from(NUMBERS[:cut])
    above = st.sampled_from(NUMBERS[cut:] + [np.nan])
    lower = draw(st.integers(0, 1))
    column = [draw(below if label == lower else above) for label in y]
    X[:, draw(st.integers(0, X.shape[1] - 1))] = column
    return X, y, params


@settings(max_examples=200, deadline=None)
@given(planted_problems())
def test_property_planted_separating_column(problem):
    X, y, params = problem
    fast = RandomForestClassifier(**params).fit(X, y)
    ref = ReferenceRandomForest(**params).fit(X, y)
    assert_same_forest(fast, ref, X)
    # every root holding both classes, against the full search: the check
    # settles exactly the nodes whose best cut has Gini 0.0, with its cut
    W = _roots(params["seed"], params["n_trees"], len(y), params["bootstrap"])
    n_fake = W @ y
    W = W[(n_fake > 0) & (n_fake < W.sum(axis=1))]
    if not len(W):
        return
    d = X.shape[1]
    rng = np.random.default_rng(params["seed"])
    k = rng.integers(1, d + 1)
    F = np.sort(np.argsort(rng.random((len(W), d)), axis=1)[:, :k], axis=1)
    presorted = _Presorted(X, y)
    features, thresholds, _, separated = presorted.separating_splits(W, F, params["min_leaf"])
    ginis, best, best_thresholds = presorted.best_splits(W, F, params["min_leaf"])
    for f, threshold, sep, gini, g, t in zip(features, thresholds, separated,
                                             ginis, best, best_thresholds):
        if f >= 0:
            assert sep and (gini, f, float(threshold).hex()) == (0.0, g, float(t).hex())
        else:
            assert gini > 0.0
