"""User susceptibility scoring from training-set spreading history.

Two scoring methods:

  by_news:       fraction of distinct training news a user spread that were
                 fake (presence counts).
  by_frequency:  fraction of the user's total training spreading frequency
                 that went to fake news.

Scores are always fit on a declared training news set so that no test-fold
label can influence a feature (leakage-safe protocol). Users with no training
history get exactly the threshold value, i.e. their class is "unknown".

Users are graph ranks. A `History` holds every (news, spreader rank, count)
record of a corpus, taken once from its full diffusion networks, and `fit`
gives every rank's score and class code as two arrays over all graph ranks,
from `np.bincount`s of the training records by rank. Each total is an exact
integer and each score one float division, so the scores equal the per-user
dict loop kept in `tests/oracles.py` bit for bit.
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


class History:
    """Every spreading record of a corpus, by graph rank.

    `news` lists the corpus's news ids sorted and `fake` marks the fake ones.
    Record i is `count[i]` spreads of news `news[story[i]]` by the user of
    graph rank `rank[i]`; ranks run over the `n_users` users of the graph.
    """

    def __init__(self, networks: dict, n_users: int):
        self.news = sorted(networks)
        nets = [networks[news] for news in self.news]
        empty = [np.empty(0, dtype=np.int64)]
        self.fake = np.array([net.label == FAKE for net in nets], dtype=bool)
        self.story = np.repeat(np.arange(len(nets)), [net.n_nodes for net in nets])
        self.rank = np.concatenate(empty + [net.ranks for net in nets])
        self.count = np.concatenate(empty + [net.counts for net in nets])
        self.n_users = n_users


def fit(history: History, training_news, method: str, theta: float) -> tuple:
    """Every graph rank's score and class code (an index into CLASSES), as
    arrays, fit on the training news only."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    training = frozenset(training_news)
    if not training:
        raise ValueError("training news set is empty")
    unknown_news = training - set(history.news)
    if unknown_news:
        raise ValueError(f"training news not in corpus: {sorted(unknown_news)[:5]}")

    kept = np.array([news in training for news in history.news], dtype=bool)[history.story]
    rank = history.rank[kept]
    weights = history.count[kept] if method == BY_FREQUENCY else np.ones(rank.size)
    fake = history.fake[history.story[kept]]
    n = history.n_users
    total = np.bincount(rank, weights=weights, minlength=n)
    fakes = np.bincount(rank[fake], weights=weights[fake], minlength=n)
    scores = np.divide(fakes, total, out=np.full(n, float(theta)), where=total > 0)
    codes = np.where(scores < theta, 0, np.where(scores > theta, 1, 2))
    return scores, codes


def fit_all(history: History, training_news, theta: float) -> dict:
    """`fit` for each scoring method; keys are the method names."""
    return {m: fit(history, training_news, m, theta) for m in METHODS}
