import random

import pytest

from newsnet.corpus import EngagementTable
from newsnet.susceptibility import (BY_FREQUENCY, BY_NEWS, CLASSES, METHODS, NORMAL,
                                    SUSCEPTIBLE, UNKNOWN, fit)

from oracles import random_corpus


def _table():
    return EngagementTable.from_records(
        {
            ("f1", "alice"): 1, ("f2", "alice"): 1,          # all fake
            ("f1", "bob"): 1, ("t1", "bob"): 3,              # 1 fake once, 1 true x3
            ("t1", "carol"): 2,                              # test-only user via split
        },
        {"f1": "fake", "f2": "fake", "t1": "true"},
    )


def test_all_fake_history_scores_one():
    table = _table()
    for method in METHODS:
        model = fit(table, {"f1", "f2", "t1"}, method, 0.5)
        assert model.score("alice") == 1.0


def test_mixed_history_example():
    table = _table()
    by_news = fit(table, {"f1", "f2", "t1"}, BY_NEWS, 0.5)
    by_freq = fit(table, {"f1", "f2", "t1"}, BY_FREQUENCY, 0.5)
    assert by_news.score("bob") == 0.5       # 1 fake of 2 news
    assert by_freq.score("bob") == 0.25      # 1 of 4 spreads


def test_no_training_history_gets_theta():
    table = _table()
    model = fit(table, {"f1", "f2"}, BY_NEWS, theta=0.5)
    assert model.score("carol") == 0.5
    assert model.classify("carol") == UNKNOWN


def test_classification_boundaries():
    table = _table()
    model = fit(table, {"f1", "f2", "t1"}, BY_NEWS, 0.5)
    assert model.classify("alice") == SUSCEPTIBLE   # 1.0 > 0.5
    assert model.classify("bob") == UNKNOWN         # exactly theta
    model_low = fit(table, {"f1", "f2", "t1"}, BY_NEWS, 0.9)
    assert model_low.classify("bob") == NORMAL      # 0.5 < 0.9


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9, 1.0])
def test_classify_all_matches_score_and_classify(theta):
    for seed in range(10):
        graph, table = random_corpus(seed)
        users = list(graph.users) + ["nobody"]
        for method in METHODS:
            model = fit(table, table.news_ids()[::2], method, theta)
            scores, codes = model.classify_all(users)
            assert scores.tolist() == [model.score(u) for u in users]
            assert [CLASSES[c] for c in codes] == [model.classify(u) for u in users]


def test_empty_training_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit(_table(), set(), BY_NEWS, 0.5)


def test_training_ids_must_be_labeled():
    with pytest.raises(ValueError, match="not in corpus"):
        fit(_table(), {"zz"}, BY_NEWS, 0.5)


def test_scores_in_unit_interval():
    for seed in range(20):
        _, table = random_corpus(seed)
        training = set(table.news_ids()[: max(1, len(table.news_ids()) // 2)])
        for method in METHODS:
            model = fit(table, training, method, 0.3)
            for user in sorted(table.user_news):
                assert 0.0 <= model.score(user) <= 1.0


def test_leakage_safety_scores_ignore_test_labels():
    for seed in range(10):
        _, table = random_corpus(seed)
        news = table.news_ids()
        training = set(news[: len(news) // 2]) or {news[0]}
        rng = random.Random(seed)
        permuted = dict(table.labels)
        outside = [n for n in news if n not in training]
        flipped = {n: ("true" if permuted[n] == "fake" else "fake") for n in outside}
        permuted.update(flipped)
        records = {(n, u): c for n, by_user in table.counts.items()
                   for u, c in by_user.items()}
        table2 = EngagementTable.from_records(records, permuted)
        for method in METHODS:
            m1 = fit(table, training, method, 0.5)
            m2 = fit(table2, training, method, 0.5)
            assert m1.scores == m2.scores, (seed, method)
        del rng


def test_methods_agree_when_all_counts_one():
    records = {}
    labels = {}
    rng = random.Random(0)
    for i in range(12):
        news = f"n{i}"
        labels[news] = rng.choice(["fake", "true"])
        for u in rng.sample([f"u{k}" for k in range(15)], 4):
            records[(news, u)] = 1
    table = EngagementTable.from_records(records, labels)
    m_news = fit(table, set(labels), BY_NEWS, 0.5)
    m_freq = fit(table, set(labels), BY_FREQUENCY, 0.5)
    assert m_news.scores == m_freq.scores


def test_theta_extremes():
    _, table = random_corpus(4)
    training = set(table.news_ids())
    fakes = {n for n, label in table.labels.items() if label == "fake"}
    at_zero = fit(table, training, BY_NEWS, 0.0)
    for user in sorted(table.user_news):
        spread_fake = any(n in fakes for n in table.user_news[user])
        if spread_fake:
            assert at_zero.classify(user) == SUSCEPTIBLE  # S > 0
    at_one = fit(table, training, BY_NEWS, 1.0)
    for user in sorted(table.user_news):
        spread_true = any(n not in fakes for n in table.user_news[user])
        if spread_true:
            assert at_one.classify(user) == NORMAL  # S < 1
