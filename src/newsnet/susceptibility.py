"""User susceptibility scoring from training-set spreading history.

Two scoring methods:

  by_news:       fraction of distinct training news a user spread that were
                 fake (presence counts).
  by_frequency:  fraction of the user's total training spreading frequency
                 that went to fake news.

Scores are always fit on a declared training news set so that no test-fold
label can influence a feature (leakage-safe protocol). Users with no training
history get exactly the threshold value, i.e. their class is "unknown".

Users are graph ranks. `fit` reads the spreading records from a
`features.NodeTable` of a corpus's full diffusion networks: node k is
`count[k]` spreads of story `order[network[k]]` by the user of graph rank
`rank[k]`. It gives every rank's score and class code as two arrays over
all graph ranks, from `np.bincount`s of the training stories' nodes by rank.
Each total is an exact integer and each score one float division, so the
scores equal the per-user dict loop kept in `tests/oracles.py` bit for bit.
"""

from __future__ import annotations

import numpy as np

from .corpus import FAKE

BY_NEWS = "by_news"
BY_FREQUENCY = "by_frequency"
METHODS = (BY_NEWS, BY_FREQUENCY)

NORMAL = "normal"
SUSCEPTIBLE = "susceptible"
UNKNOWN = "unknown"
CLASSES = (NORMAL, SUSCEPTIBLE, UNKNOWN)  # a class code is an index into this


def fit(table, n_users: int, training_news, method: str, theta: float) -> tuple:
    """Every one of the `n_users` graph ranks' score and class code (an index
    into CLASSES), as arrays, fit on the training news of a `NodeTable` only."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    training = frozenset(training_news)
    if not training:
        raise ValueError("training news set is empty")
    unknown_news = training - set(table.order)
    if unknown_news:
        raise ValueError(f"training news not in corpus: {sorted(unknown_news)[:5]}")

    kept = np.array([news in training for news in table.order], dtype=bool)[table.network]
    rank = table.rank[kept]
    weights = table.count[kept] if method == BY_FREQUENCY else np.ones(rank.size)
    fake = np.array([label == FAKE for label in table.labels], dtype=bool)[table.network[kept]]
    total = np.bincount(rank, weights=weights, minlength=n_users)
    fakes = np.bincount(rank[fake], weights=weights[fake], minlength=n_users)
    scores = np.divide(fakes, total, out=np.full(n_users, float(theta)), where=total > 0)
    codes = np.where(scores < theta, 0, np.where(scores > theta, 1, 2))
    return scores, codes


def fit_all(table, n_users: int, training_news, theta: float) -> dict:
    """`fit` for each scoring method; keys are the method names."""
    return {m: fit(table, n_users, training_news, m, theta) for m in METHODS}
