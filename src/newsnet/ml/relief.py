"""Relief feature ranking (binary labels): nearest-hit / nearest-miss weights.

Features are min-max scaled to [0, 1] per dimension first (constant
dimensions therefore score exactly 0). For each sampled instance the nearest
same-class and nearest other-class neighbors under Euclidean distance update
every feature weight by |x - miss| - |x - hit|. The default uses every sample
once, in order; distance ties resolve to the lowest index.
"""

from __future__ import annotations

import numpy as np

from ..corpus import CorpusError
from ..util import derive_seed
from .baselines import MinMaxScaler


def relief_weights(X, y, m=None, seed=0):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    for c in (0, 1):
        if int(np.sum(y == c)) < 2:
            raise CorpusError("relief requires at least 2 samples per class")
    Xs = MinMaxScaler().fit_transform(X)
    if m is None or m >= n:
        picks = np.arange(n)
    else:
        rng = np.random.default_rng(derive_seed(seed, "relief"))
        picks = rng.choice(n, size=m, replace=False)
    weights = np.zeros(X.shape[1], dtype=np.float64)
    for i in picks:
        d = np.sqrt(((Xs - Xs[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        same = y == y[i]
        hit_candidates = np.where(same)[0]
        miss_candidates = np.where(~same)[0]
        hit = hit_candidates[int(np.argmin(d[hit_candidates]))]
        miss = miss_candidates[int(np.argmin(d[miss_candidates]))]
        weights += np.abs(Xs[i] - Xs[miss]) - np.abs(Xs[i] - Xs[hit])
    return weights


def relief_rank(X, y, m=None, seed=0):
    """Feature indices (0-based) with weights, best first; index breaks ties."""
    weights = relief_weights(X, y, m=m, seed=seed)
    order = sorted(range(len(weights)), key=lambda f: (-weights[f], f))
    return [(f, float(weights[f])) for f in order]
