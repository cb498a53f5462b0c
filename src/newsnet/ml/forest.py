"""Gini decision trees and a bootstrap random forest, binary labels 0/1.

Label 1 is the fake class; every tie (leaf majority, forest vote) breaks
toward it deterministically.

`fit` sorts every column of the n × d training matrix once (a stable
argsort plus the sorted values). A node is an int64 weight vector over the n
training rows: at the root it holds the bootstrap multiplicities (ones
without bootstrap), and a split hands its children the parent's weights
masked by `X[:, f] < threshold` and by its complement, so no row subset is
ever copied. A node stops as a leaf when it is pure, at `max_depth`, or
smaller than `2 * min_leaf`; otherwise it draws its candidate features and
takes the split with the lowest weighted Gini, unless that is no lower than
its own Gini.

The split search takes a batch of nodes, each with its own candidate
features, and computes them all in one array pass over the presorted
columns. Running sums of w and w·y give the left-side row and fake counts
at every sorted position. A cut lies after a present row (w > 0) whose value
is strictly below the next present non-NaN value, and leaves at least
`min_leaf` rows on each side. The threshold is the midpoint of those two
values, or the upper one where the midpoint would not separate them (after
-inf, between neighbouring floats, or on overflow). The winner is the first minimum in (candidate feature, ascending
value) order. The trees of a forest grow together: each step takes the next
node in depth-first preorder from every unfinished tree, draws that node's
candidate features from its own tree's generator and searches the batch in
chunks of `_CHUNK` nodes, which bounds the n × chunk × k temporaries.

The result is bit-identical to growing each tree recursively on a copy of its
bootstrap rows (the reference in `tests/oracles.py`). A cut's counts depend
only on the multiset of (value, label) pairs on each side, which the weights
give as the same int64 values. The Gini and threshold use the same
elementwise float formulas. The first minimum is the reference's "first
strictly best" rule over sorted candidates. Each tree still draws from its
own generator in depth-first preorder, so every draw is the same.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..util import derive_seed

_CHUNK = 8  # nodes per split search


class _Trees:
    """Trees as flat node arrays; tree t's root is node t.

    Node i is a leaf predicting `prediction[i]` when `feature[i]` is -1;
    otherwise a row goes to `left[i]` if its `feature[i]` value is below
    `threshold[i]`, else to `right[i]` (so NaN goes right).
    """

    def __init__(self, n_trees, nodes):
        self.n_trees = n_trees
        feature, threshold, left, right, prediction = zip(*nodes) if nodes else [()] * 5
        self.feature = np.array(feature, dtype=np.int64)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int64)
        self.right = np.array(right, dtype=np.int64)
        self.prediction = np.array(prediction, dtype=np.int64)

    def predict_each(self, X) -> np.ndarray:
        """(n_trees, n_rows) leaf predictions."""
        m = X.shape[0]
        node = np.repeat(np.arange(self.n_trees), m).reshape(self.n_trees, m)
        row = np.broadcast_to(np.arange(m), node.shape)
        inner = self.feature[node] >= 0
        while inner.any():
            at = node[inner]
            goes_left = X[row[inner], self.feature[at]] < self.threshold[at]
            node[inner] = np.where(goes_left, self.left[at], self.right[at])
            inner = self.feature[node] >= 0
        return self.prediction[node]


class _Presorted:
    """The training columns sorted once: row order, values and labels, (d, n)."""

    def __init__(self, X, y):
        d = X.shape[1]
        self.order = np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)
        self.values = X.T[np.arange(d)[:, None], self.order]
        self.labels = y[self.order]
        self.not_nan = ~np.isnan(self.values)

    def best_splits(self, W, F, min_leaf):
        """First best (weighted Gini, feature, threshold) of each node.

        W is (B, n) node weights and F (B, k) candidate features. A node
        without any cut gets Gini inf and feature -1.
        """
        B = W.shape[0]
        b = np.arange(B)
        ws = W[b[:, None, None], self.order[F]]  # (B, k, n) in sorted order
        vs = self.values[F]
        left_n = np.cumsum(ws, axis=2)
        left_pos = np.cumsum(ws * self.labels[F], axis=2)
        n_node = left_n[:, :, -1:]
        right_n = n_node - left_n
        right_pos = left_pos[:, :, -1:] - left_pos
        # value of the next present non-NaN row after each position (fmin
        # skips NaN), and the weight of the present non-NaN rows
        after = np.fmin.accumulate(np.where(ws > 0, vs, np.inf)[:, :, ::-1],
                                   axis=2)[:, :, ::-1]
        numbered = np.where(self.not_nan[F], ws, 0).sum(axis=2, keepdims=True)
        left_n, left_pos = left_n[:, :, :-1], left_pos[:, :, :-1]
        right_n, right_pos = right_n[:, :, :-1], right_pos[:, :, :-1]
        here, after = vs[:, :, :-1], after[:, :, 1:]
        cut = ((ws[:, :, :-1] > 0) & (here < after) & (left_n < numbered)
               & (left_n >= min_leaf) & (right_n >= min_leaf))
        with np.errstate(divide="ignore", invalid="ignore"):
            p_l = left_pos / left_n
            p_r = right_pos / right_n
            gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
            gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
            weighted = (left_n * gini_l + right_n * gini_r) / n_node
        weighted = np.where(cut, weighted, np.inf).reshape(B, -1)
        best = weighted.argmin(axis=1)
        j, i = np.divmod(best, here.shape[2])
        gini = weighted[b, best]
        lo, hi = here[b, j, i], after[b, j, i]
        with np.errstate(over="ignore", invalid="ignore"):
            mid = (lo + hi) / 2.0
        threshold = np.where((lo < mid) & (mid <= hi), mid, hi)
        feature = np.where(gini < np.inf, F[b, j], -1)
        return gini, feature, threshold


def _grow(X, y, roots, rngs, n_candidates, max_depth, min_leaf) -> _Trees:
    """Grow one tree per root weight vector, all trees in lockstep.

    Tree t draws its candidate features from rngs[t]: n_candidates of the
    d columns, or every column without a draw (rngs[t] unused) when
    n_candidates is None or at least d.
    """
    d = X.shape[1]
    presorted = _Presorted(X, y)
    draw = n_candidates is not None and n_candidates < d
    everything = np.arange(d)
    nodes = [None] * len(roots)  # (feature, threshold, left, right, prediction)
    stacks = [[(t, w, 0)] for t, w in enumerate(roots)]
    while True:
        batch = []  # (tree, node, weights, depth, n_rows, n_fake, features)
        for t, stack in enumerate(stacks):
            while stack:
                node, w, depth = stack.pop()
                n_rows, n_fake = int(w.sum()), int(w @ y)
                if (n_fake == 0 or n_fake == n_rows
                        or (max_depth is not None and depth >= max_depth)
                        or n_rows < 2 * min_leaf):
                    nodes[node] = (-1, 0.0, -1, -1, int(2 * n_fake >= n_rows))
                    continue
                candidates = (np.sort(rngs[t].choice(d, size=n_candidates, replace=False))
                              if draw else everything)
                batch.append((t, node, w, depth, n_rows, n_fake, candidates))
                break
        if not batch:
            return _Trees(len(roots), nodes)
        for start in range(0, len(batch), _CHUNK):
            chunk = batch[start:start + _CHUNK]
            ginis, features, thresholds = presorted.best_splits(
                np.stack([item[2] for item in chunk]),
                np.stack([item[6] for item in chunk]), min_leaf)
            for (t, node, w, depth, n_rows, n_fake, _), gini, f, thr in zip(
                    chunk, ginis.tolist(), features.tolist(), thresholds.tolist()):
                p = n_fake / n_rows
                if f < 0 or gini >= 1.0 - p ** 2 - (1.0 - p) ** 2:
                    nodes[node] = (-1, 0.0, -1, -1, int(2 * n_fake >= n_rows))
                    continue
                goes_left = X[:, f] < thr
                left, right = len(nodes), len(nodes) + 1
                nodes[node] = (f, thr, left, right, -1)
                nodes += [None, None]
                stacks[t].append((right, w * ~goes_left, depth + 1))
                stacks[t].append((left, w * goes_left, depth + 1))


@functools.lru_cache(maxsize=8)
def _draws(seed: int, n_trees: int, n: int, bootstrap: bool) -> tuple:
    """Each tree's root row multiplicities (read-only) and split-generator seed
    sequence (seeding a generator from it leaves it unchanged).

    They depend on these four values only, so a forest refit on another
    training matrix of the same size (another feature mask or threshold of
    one fold) reuses them.
    """
    roots, split_seeds = [], []
    for t in range(n_trees):
        tree_seed = derive_seed(seed, "tree", t)
        if bootstrap:
            rows = np.random.default_rng(tree_seed).integers(0, n, size=n)
            root = np.bincount(rows, minlength=n)
        else:
            root = np.ones(n, dtype=np.int64)
        root.flags.writeable = False
        roots.append(root)
        split_seeds.append(np.random.SeedSequence(derive_seed(tree_seed, "splits")))
    return tuple(roots), tuple(split_seeds)


class DecisionTreeClassifier:
    """CART-style classifier; axis-aligned splits, Gini impurity."""

    def __init__(self, max_depth=None, min_leaf=1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._trees = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._trees = _grow(X, y, [np.ones(X.shape[0], dtype=np.int64)], [None],
                            None, self.max_depth, self.min_leaf)
        return self

    def predict(self, X):
        return self._trees.predict_each(np.asarray(X, dtype=np.float64))[0]


class RandomForestClassifier:
    """Bootstrap forest of Gini trees; majority vote, ties to fake."""

    def __init__(self, n_trees=100, max_features="sqrt", max_depth=None,
                 min_leaf=1, bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.seed = seed
        self._trees = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        if self.max_features == "sqrt":
            per_split = math.ceil(math.sqrt(d))
        else:
            per_split = min(int(self.max_features), d)
        roots, split_seeds = _draws(self.seed, self.n_trees, n, bool(self.bootstrap))
        rngs = [np.random.Generator(np.random.PCG64(s)) for s in split_seeds]
        self._trees = _grow(X, y, roots, rngs, per_split, self.max_depth,
                            self.min_leaf)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        votes = self._trees.predict_each(X).sum(axis=0)
        return (2 * votes >= self.n_trees).astype(np.int64)
