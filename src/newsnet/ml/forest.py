"""Gini decision trees and a bootstrap random forest, binary labels 0/1.

Label 1 is the fake class; every tie (leaf majority, forest vote) breaks
toward it deterministically.

`fit` sorts every column of the n × d training matrix once (a stable
argsort plus the sorted values). A node is an int64 weight vector over the n
training rows, carried with its row and fake counts: at the root it holds the
bootstrap multiplicities (ones without bootstrap), and a split hands its
children the parent's weights masked by `X[:, f] < threshold` and the rest,
so no row subset is ever copied. A node stops as a leaf when it is pure, at
`max_depth`, or smaller than `2 * min_leaf`; otherwise it takes its candidate
features and the split with the lowest weighted Gini, unless that is no
lower than its own Gini.

The split search takes a batch of nodes, each with its own candidate
features, and computes them all in one array pass over the presorted
columns. Running sums of w and w·y give the left-side row and fake counts
at every sorted position. A cut lies after a present row (w > 0) whose value
is strictly below the next present non-NaN value, and leaves at least
`min_leaf` rows on each side. Only the cuts are scored: their flat
positions index the counts, each cut's node totals come from its (node,
candidate) row, and the weighted Ginis are scattered into an inf array, so
no Gini is computed where a side could be empty (a third of the positions
are cuts on the demo corpus). The threshold is the midpoint of the cut's
two values, or the upper one where the midpoint would not separate them
(after -inf, between neighbouring floats, or on overflow). The winner is the
first minimum in (candidate feature, ascending value) order. The trees of a
forest grow together: each step takes the next node in depth-first preorder
from every unfinished tree and searches the batch in chunks of `_CHUNK`
nodes, which bounds the n × chunk × k temporaries. The children's weights
and counts of a chunk's splits come from one mask product, row sum and
product with y, so the per-node loop makes no numpy call.

Candidate features come from draw streams cached across fits. Tree t's
split generator is seeded from (seed, t) alone, and the i-th node of that
tree in preorder that reaches the split search takes its i-th draw, so the
draws depend only on (seed, tree, d, k). `_draws` keeps, per (seed, n_trees,
d, k), every tree's draws made so far in one small read-only int array; a
refit of the same shape (another threshold of a sweep) reads them, and a fit
that needs more replays the tree's generator from its seed for that fit only.
The bootstrap multiplicities are cached per (seed, n_trees, n, bootstrap).

The result is bit-identical to growing each tree recursively on a copy of its
bootstrap rows (the reference in `tests/oracles.py`). A cut's counts depend
only on the multiset of (value, label) pairs on each side, which the weights
give as the same int64 values. The Gini and threshold use the same
elementwise float formulas on the same operands; an entry that is not a cut
is inf whether or not its Gini was computed. The first minimum is the
reference's "first strictly best" rule over sorted candidates. Each node
takes the draw its tree's generator makes for it in the reference's
depth-first preorder, so every candidate set is the same.
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
        B, n = W.shape
        b = np.arange(B)
        ws = W.take(self.order[F] + (b * n)[:, None, None])  # (B, k, n) in sorted order
        vs = self.values[F]
        left_n = np.cumsum(ws, axis=2)
        left_pos = np.cumsum(ws * self.labels[F], axis=2)
        n_node = left_n[:, :, -1:]
        # value of the next present non-NaN row after each position (fmin
        # skips NaN), and the weight of the present non-NaN rows
        after = np.fmin.accumulate(np.where(ws > 0, vs, np.inf)[:, :, ::-1],
                                   axis=2)[:, :, ::-1]
        numbered = np.where(self.not_nan[F], ws, 0).sum(axis=2, keepdims=True)
        head = left_n[:, :, :-1]
        here, after = vs[:, :, :-1], after[:, :, 1:]
        cut = ((ws[:, :, :-1] > 0) & (here < after) & (head < numbered)
               & (head >= min_leaf) & (head <= n_node - min_leaf))
        # the weighted Gini of the cuts only; both sides hold >= min_leaf >= 1 rows
        idx = np.flatnonzero(cut)
        node = idx // (n - 1)  # the (node, candidate) row of each cut
        at = idx + node  # its position in the (B, k, n) arrays
        total, total_pos = n_node.take(node), left_pos[:, :, -1].take(node)
        left_n, left_pos = left_n.take(at), left_pos.take(at)
        right_n, right_pos = total - left_n, total_pos - left_pos
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
        weighted = np.full(cut.size, np.inf)
        weighted[idx] = (left_n * gini_l + right_n * gini_r) / total
        weighted = weighted.reshape(B, -1)
        best = weighted.argmin(axis=1)
        j, i = np.divmod(best, n - 1)
        gini = weighted[b, best]
        lo, hi = here[b, j, i], after[b, j, i]
        with np.errstate(over="ignore", invalid="ignore"):
            mid = (lo + hi) / 2.0
        threshold = np.where((lo < mid) & (mid <= hi), mid, hi)
        feature = np.where(gini < np.inf, F[b, j], -1)
        return gini, feature, threshold


def _grow(X, y, roots, draws, max_depth, min_leaf) -> _Trees:
    """Grow one tree per row of roots (root weights), all trees in lockstep.

    The i-th node of tree t in preorder that reaches the split search takes
    the candidate features `draws.stream[t, i]`, or every column when draws
    is None.
    """
    presorted = _Presorted(X, y)
    n_trees = len(roots)
    everything = np.arange(X.shape[1])
    nodes = [None] * n_trees  # (feature, threshold, left, right, prediction)
    stacks = [[(t, w, 0, n_rows, n_fake)] for t, (w, n_rows, n_fake) in enumerate(
        zip(roots, roots.sum(axis=1).tolist(), (roots @ y).tolist()))]
    searched = [0] * n_trees  # nodes of each tree that reached the split search
    live = {}  # this fit's split generators, for draws not made before
    while True:
        batch = []  # (tree, draw, node, weights, depth, n_rows, n_fake)
        for t, stack in enumerate(stacks):
            while stack:
                node, w, depth, n_rows, n_fake = stack.pop()
                if (n_fake == 0 or n_fake == n_rows
                        or (max_depth is not None and depth >= max_depth)
                        or n_rows < 2 * min_leaf):
                    nodes[node] = (-1, 0.0, -1, -1, int(2 * n_fake >= n_rows))
                    continue
                i = searched[t]
                searched[t] += 1
                if draws is not None and i == draws.filled[t]:
                    draws.extend(t, live)
                batch.append((t, i, node, w, depth, n_rows, n_fake))
                break
        if not batch:
            return _Trees(n_trees, nodes)
        for start in range(0, len(batch), _CHUNK):
            chunk = batch[start:start + _CHUNK]
            W = np.stack([item[3] for item in chunk])
            if draws is None:
                F = np.broadcast_to(everything, (len(chunk), everything.size))
            else:
                F = draws.stream[[item[0] for item in chunk],
                                 [item[1] for item in chunk]].astype(np.intp)
            ginis, features, thresholds = presorted.best_splits(W, F, min_leaf)
            split = []
            for at, ((_, _, node, _, _, n_rows, n_fake), gini, f) in enumerate(
                    zip(chunk, ginis.tolist(), features.tolist())):
                p = n_fake / n_rows
                if f < 0 or gini >= 1.0 - p ** 2 - (1.0 - p) ** 2:
                    nodes[node] = (-1, 0.0, -1, -1, int(2 * n_fake >= n_rows))
                else:
                    split.append(at)
            if not split:
                continue
            # the children's weights and counts, for every split of the chunk
            W, features, thresholds = W[split], features[split], thresholds[split]
            L = W * (X[:, features].T < thresholds[:, None])
            children = zip(L, W - L, L.sum(axis=1).tolist(), (L @ y).tolist())
            for at, f, thr, (l, r, l_rows, l_fake) in zip(
                    split, features.tolist(), thresholds.tolist(), children):
                t, _, node, _, depth, n_rows, n_fake = chunk[at]
                left, right = len(nodes), len(nodes) + 1
                nodes[node] = (f, thr, left, right, -1)
                nodes += [None, None]
                stacks[t].append((right, r, depth + 1, n_rows - l_rows, n_fake - l_fake))
                stacks[t].append((left, l, depth + 1, l_rows, l_fake))


class _Draws:
    """Every tree's candidate-feature draws for one (seed, n_trees, d, k).

    `stream[t, i]` is the sorted i-th `choice(d, k, replace=False)` of tree
    t's split generator, for `i < filled[t]`; the array is read-only between
    extensions. A fit that needs draw `filled[t]` extends tree t from a
    generator it keeps for that fit only, made by replaying the stored draws
    from the tree's seed, so a refit of the same shape makes no generator.
    Extending is not thread-safe; parallel runs use processes, each with its
    own cache.
    """

    def __init__(self, seeds, d, k):
        self.seeds, self.d, self.k = seeds, d, k
        self.filled = [0] * len(seeds)
        self.stream = np.empty((len(seeds), 0, k), dtype=np.min_scalar_type(d - 1))
        self.stream.flags.writeable = False

    def _choice(self, rng):
        return rng.choice(self.d, size=self.k, replace=False)

    def extend(self, t, live):
        """Append tree t's next draw, at index filled[t]."""
        i = self.filled[t]
        rng = live.get(t)
        if rng is None:
            rng = live[t] = np.random.Generator(np.random.PCG64(self.seeds[t]))
            for _ in range(i):
                self._choice(rng)
        stream = self.stream
        if i == stream.shape[1]:
            stream = np.zeros((len(self.filled), i + 1 + i // 4, self.k), stream.dtype)
            stream[:, :i] = self.stream
        else:
            stream.flags.writeable = True
        stream[t, i] = np.sort(self._choice(rng))
        stream.flags.writeable = False
        self.stream = stream
        self.filled[t] = i + 1


@functools.lru_cache(maxsize=64)
def _draws(seed: int, n_trees: int, d: int, k: int) -> _Draws:
    """The cached candidate draws of one forest shape; every fold x feature
    mask of a threshold sweep keeps its own."""
    return _Draws(_split_seeds(seed, n_trees), d, k)


@functools.lru_cache(maxsize=8)
def _split_seeds(seed: int, n_trees: int) -> tuple:
    """Each tree's split-generator seed sequence (seeding a generator from it
    leaves it unchanged, and is cheaper than seeding from the int)."""
    return tuple(np.random.SeedSequence(derive_seed(derive_seed(seed, "tree", t), "splits"))
                 for t in range(n_trees))


@functools.lru_cache(maxsize=8)
def _roots(seed: int, n_trees: int, n: int, bootstrap: bool) -> np.ndarray:
    """(n_trees, n) read-only root row multiplicities, one row per tree.

    They depend on these four values only, so a forest refit on another
    training matrix of the same size (another feature mask or threshold of
    one fold) reuses them.
    """
    if bootstrap:
        roots = np.stack([
            np.bincount(np.random.default_rng(derive_seed(seed, "tree", t))
                        .integers(0, n, size=n), minlength=n)
            for t in range(n_trees)])
    else:
        roots = np.ones((n_trees, n), dtype=np.int64)
    roots.flags.writeable = False
    return roots


class DecisionTreeClassifier:
    """CART-style classifier; axis-aligned splits, Gini impurity."""

    def __init__(self, max_depth=None, min_leaf=1):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._trees = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        self._trees = _grow(X, y, np.ones((1, X.shape[0]), dtype=np.int64), None,
                            self.max_depth, self.min_leaf)
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
        draws = _draws(self.seed, self.n_trees, d, per_split) if per_split < d else None
        self._trees = _grow(X, y, _roots(self.seed, self.n_trees, n, bool(self.bootstrap)),
                            draws, self.max_depth, self.min_leaf)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        votes = self._trees.predict_each(X).sum(axis=0)
        return (2 * votes >= self.n_trees).astype(np.int64)
