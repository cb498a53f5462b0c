"""User susceptibility scoring from training-set spreading history.

Two scoring methods:

  by_news:       fraction of distinct training news a user spread that were
                 fake (presence counts).
  by_frequency:  fraction of the user's total training spreading frequency
                 that went to fake news.

Scores are always fit on a declared training news set so that no test-fold
label can influence a feature (leakage-safe protocol). Users with no training
history get exactly the threshold value, i.e. their class is "unknown".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FAKE, EngagementTable

BY_NEWS = "by_news"
BY_FREQUENCY = "by_frequency"
METHODS = (BY_NEWS, BY_FREQUENCY)

NORMAL = "normal"
SUSCEPTIBLE = "susceptible"
UNKNOWN = "unknown"
CLASSES = (NORMAL, SUSCEPTIBLE, UNKNOWN)  # a class code is an index into this


@dataclass(frozen=True)
class SusceptibilityModel:
    theta: float
    scores: dict  # user_id -> score, only for users with training history

    def score(self, user) -> float:
        return self.scores.get(user, self.theta)

    def classify(self, user) -> str:
        s = self.score(user)
        if s < self.theta:
            return NORMAL
        if s > self.theta:
            return SUSCEPTIBLE
        return UNKNOWN

    def classify_all(self, users) -> tuple:
        """Every user's score and class code (an index into CLASSES), as arrays.

        Entry i equals score(users[i]) and CLASSES.index(classify(users[i])).
        """
        scores = np.array([self.scores.get(user, self.theta) for user in users],
                          dtype=np.float64)
        codes = np.where(scores < self.theta, 0, np.where(scores > self.theta, 1, 2))
        return scores, codes


def fit(table: EngagementTable, training_news, method: str, theta: float) -> SusceptibilityModel:
    """Fit per-user susceptibility scores from the training news only."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    training = frozenset(training_news)
    if not training:
        raise ValueError("training news set is empty")
    unknown_news = training - set(table.labels)
    if unknown_news:
        raise ValueError(f"training news not in corpus: {sorted(unknown_news)[:5]}")

    scores: dict = {}
    for user, by_news in table.user_news.items():
        fake_n = 0
        total_n = 0
        fake_t = 0
        total_t = 0
        for news, count in by_news.items():
            if news not in training:
                continue
            total_n += 1
            total_t += count
            if table.labels[news] == FAKE:
                fake_n += 1
                fake_t += count
        if total_n == 0:
            continue  # no training history: score defaults to theta
        if method == BY_NEWS:
            scores[user] = fake_n / total_n
        else:
            scores[user] = fake_t / total_t
    return SusceptibilityModel(theta=float(theta), scores=scores)


def fit_all(table: EngagementTable, training_news, theta: float) -> dict:
    """Fit one model per scoring method; keys are the method names."""
    return {m: fit(table, training_news, m, theta) for m in METHODS}
