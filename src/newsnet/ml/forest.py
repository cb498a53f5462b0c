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
`min_leaf` rows on each side. A reversed `np.fmin` scan gives that next
value; it skips NaN, so it is NaN, and fails the test, where only NaN rows
(sorted last) follow. Only the cuts are scored: their flat
positions index the counts, each cut's node totals come from its (node,
candidate) row, and the weighted Ginis are scattered into an inf array, so
no Gini is computed where a side could be empty (a third of the positions
are cuts on the demo corpus). The threshold is the midpoint of the cut's
two values, or the upper one where the midpoint would not separate them
(after -inf, between neighbouring floats, or on overflow; `_threshold`). The
winner is the first minimum in (candidate feature, ascending value) order.

Most nodes never need that search. Call a cut separating when every row of
one class goes left and every row of the other right. Both its sides have
p ∈ {0, 1}, so `1.0 - p**2 - (1.0 - p)**2` is exactly 0.0 on each and the
weighted Gini is 0.0. Every other cut has a side with p = a/b, where
0 < a < b ≤ the node's row total N; that side's Gini is near 2p(1 - p) ≥ 1/N,
far above the few units of 2**-53 the formula can lose to rounding, so the
cut's weighted Gini is positive. The first minimum is therefore the first
candidate's separating cut, if any candidate has one; a candidate has at most
one, between the lower class's largest value and the upper class's smallest.
`_Presorted.separating_splits` finds it with a gather of the candidate
columns and per-class max and min reductions over each node's present rows.
NaN rows sort last and go right. The lower class's max lets NaN propagate,
which blocks the cut; the upper class's `np.fmin` over NaN fill is NaN when it
has no number, which blocks it too. `min_leaf` holds exactly when both class
counts reach it, a test on the whole node. The threshold comes from
`_threshold` on the same two values. `fit` adds 0.0 to X, which turns -0.0
into 0.0 and changes no other value, so a threshold taken as the upper value
itself (after -inf) cannot be a zero whose sign depends on which of the tied
rows a reduction or a search meets first; `x < 0.0` and `x < -0.0` are the
same test, so predictions do not change. A node with a separating cut
splits (its own Gini is positive) and its two children are pure leaves at
once. On the benchmark's `sweep_demo` at master
seed 7 the check settles 9,672 of the 10,817 searched nodes, and all 1,500 on
`early_bignets`.

The trees of a forest grow together: each step takes the next node in
depth-first preorder from every unfinished tree. The check takes the batch's
candidates in blocks (`_BLOCKS`: the first, the next three, the rest), each
over the nodes no earlier block settled or sent on. A node whose block
holds no separating cut goes on to the next block, and a node with no
separating cut at all, or one that may not be taken, goes to the search. Of
the settled nodes, 56% separate at their first candidate and 91% within four
on `sweep_demo` (85% and all but 3 of 1,500 on `early_bignets`), so most
nodes never gather the others. The search takes chunks of `_CHUNK` nodes,
and a check call as many (node, candidate) pairs, which bounds the
n × chunk × k temporaries. The children's weights and counts of a
chunk's splits come from one mask product, row sum and product with y, so
the per-node loop makes no numpy call.

Candidate features come from draw streams cached across fits. Tree t's
split generator is seeded from (seed, t) alone, and the i-th node of that
tree in preorder that reaches the split search takes its i-th draw, so the
draws depend only on (seed, tree, d, k). `_draws` keeps, per (seed, n_trees,
d, k), every tree's draws made so far in one small read-only int array; a
refit of the same shape (another threshold of a sweep) reads them, and a fit
that needs more replays the tree's generator from its seed for that fit only.
Where k = d (a decision tree, or `max_features` ≥ d) every sorted draw is
0..d-1, every column. The bootstrap multiplicities are cached per (seed,
n_trees, n, bootstrap).

The result is bit-identical to growing each tree recursively on a copy of its
bootstrap rows of X + 0.0 (the reference in `tests/oracles.py`). A cut's
counts depend only on the multiset of (value, label) pairs on each side,
which the weights give as the same int64 values. The Gini and threshold use the same
elementwise float formulas on the same operands; an entry that is not a cut
is inf whether or not its Gini was computed. The first minimum is the
reference's "first strictly best" rule over sorted candidates, and a
separating cut is that minimum, with the same threshold. Each node
takes the draw its tree's generator makes for it in the reference's
depth-first preorder, so every candidate set is the same.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from ..util import derive_seed

_CHUNK = 8  # nodes per split search
_BLOCKS = ((0, 1), (1, 4), (4, None))  # candidate slices the separating check takes in turn


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
        self.columns = np.ascontiguousarray(X.T)
        self.fake = y.astype(bool)

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
        # the next present non-NaN value after each position, NaN if none
        after = np.fmin.accumulate(np.where(ws > 0, vs, np.nan)[:, :, ::-1],
                                   axis=2)[:, :, ::-1]
        head = left_n[:, :, :-1]
        here, after = vs[:, :, :-1], after[:, :, 1:]
        cut = ((ws[:, :, :-1] > 0) & (here < after)
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
        threshold = _threshold(here[b, j, i], after[b, j, i])
        feature = np.where(gini < np.inf, F[b, j], -1)
        return gini, feature, threshold

    def separating_splits(self, W, F, min_leaf):
        """First separating cut of each node: (feature, threshold, lower class,
        separated).

        W is (B, n) node weights of nodes holding both classes and F (B, k)
        candidate features. The lower class's rows all go left and the other
        class's right. `separated` says whether any candidate has such a cut.
        Feature is -1 where none has, and where a class has fewer than
        min_leaf rows, so that the cut may not be taken.
        """
        b = np.arange(len(W))
        v = self.columns[F][:, :, None, :]  # (B, k, 1, n)
        present = W > 0
        by_class = np.stack([present & ~self.fake, present & self.fake], axis=1)[:, None]
        # over present rows, (B, k, 2) by lower class c: class c's largest
        # value (NaN if it has a NaN row) and the other class's smallest
        # number (NaN if it has none)
        lo = np.where(by_class, v, -np.inf).max(axis=3)
        hi = np.fmin.reduce(np.where(by_class, v, np.nan), axis=3)[:, :, ::-1]
        flat = (lo < hi).reshape(len(W), -1)
        first = flat.argmax(axis=1)
        j, lower = np.divmod(first, 2)
        lo, hi = lo[b, j, lower], hi[b, j, lower]
        n_fake = W @ self.fake
        separated = flat[b, first]
        taken = separated & (np.minimum(n_fake, W.sum(axis=1) - n_fake) >= min_leaf)
        return np.where(taken, F[b, j], -1), _threshold(lo, hi), lower, separated


def _threshold(lo, hi):
    """The midpoint of a cut's two values, or the upper one where the midpoint
    would not separate them (after -inf, between neighbouring floats, or on
    overflow)."""
    with np.errstate(over="ignore", invalid="ignore"):
        mid = (lo + hi) / 2.0
    return np.where((lo < mid) & (mid <= hi), mid, hi)


def _grow(X, y, roots, draws, max_depth, min_leaf) -> _Trees:
    """Grow one tree per row of roots (root weights), all trees in lockstep.

    The i-th node of tree t in preorder that reaches the split search takes
    the candidate features `draws.stream[t, i]`. A separating cut among them
    has weighted Gini exactly 0.0 and every other cut a positive one, so it
    is the cut `best_splits` would pick: such a node splits there without
    the search, and its children are leaves. Only the other nodes go to
    `best_splits`.
    """
    presorted = _Presorted(X, y)
    n_trees = len(roots)
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
                if i == draws.filled[t]:
                    draws.extend(t, live)
                batch.append((t, i, node, w, depth, n_rows, n_fake))
                break
        if not batch:
            return _Trees(n_trees, nodes)
        W = np.stack([item[3] for item in batch])
        F = draws.stream[[item[0] for item in batch],
                         [item[1] for item in batch]].astype(np.intp)
        rest, open_ = [], list(range(len(batch)))  # open: no block has decided yet
        for block in _BLOCKS:
            Fb = F[:, slice(*block)]
            if not Fb.shape[1]:
                break
            size = _CHUNK * F.shape[1] // Fb.shape[1]  # a search chunk's (node, candidate) pairs
            still = []
            for start in range(0, len(open_), size):
                part = open_[start:start + size]
                found = presorted.separating_splits(W[part], Fb[part], min_leaf)
                for at, f, thr, lower, separated in zip(part, *(a.tolist() for a in found)):
                    if f >= 0:
                        left = len(nodes)
                        nodes[batch[at][2]] = (f, thr, left, left + 1, -1)
                        nodes += [(-1, 0.0, -1, -1, lower), (-1, 0.0, -1, -1, 1 - lower)]
                    else:
                        (rest if separated else still).append(at)
            open_ = still
        rest += open_
        for start in range(0, len(rest), _CHUNK):
            part = rest[start:start + _CHUNK]
            chunk, Wc = [batch[at] for at in part], W[part]
            ginis, features, thresholds = presorted.best_splits(Wc, F[part], min_leaf)
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
            Wc, features, thresholds = Wc[split], features[split], thresholds[split]
            L = Wc * (X[:, features].T < thresholds[:, None])
            children = zip(L, Wc - L, L.sum(axis=1).tolist(), (L @ y).tolist())
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
        X = np.asarray(X, dtype=np.float64) + 0.0  # no -0.0: see the module docstring
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        if self.max_features == "sqrt":
            per_split = math.ceil(math.sqrt(d))
        else:
            per_split = min(int(self.max_features), d)
        self._trees = _grow(X, y, _roots(self.seed, self.n_trees, n, bool(self.bootstrap)),
                            _draws(self.seed, self.n_trees, d, per_split),
                            self.max_depth, self.min_leaf)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        votes = self._trees.predict_each(X).sum(axis=0)
        return (2 * votes >= self.n_trees).astype(np.int64)


class DecisionTreeClassifier(RandomForestClassifier):
    """CART-style classifier; axis-aligned splits, Gini impurity: a forest of
    one tree on every row, with every feature a candidate at each split."""

    def __init__(self, max_depth=None, min_leaf=1):
        super().__init__(n_trees=1, max_features=sys.maxsize, max_depth=max_depth,
                         min_leaf=min_leaf, bootstrap=False)

    predict = RandomForestClassifier.predict  # its own attribute: the bench tracer wraps it
