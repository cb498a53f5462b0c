import random

import pytest

from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import build_all_networks
from newsnet.features import NodeTable
from newsnet.susceptibility import (BY_FREQUENCY, BY_NEWS, CLASSES, METHODS, NORMAL,
                                    SUSCEPTIBLE, UNKNOWN, fit)

from oracles import fit as dict_fit
from oracles import random_corpus

ALICE, BOB, CAROL = range(3)  # graph ranks, in sorted id order


def _history(table, users=("alice", "bob", "carol")):
    """The node table of the corpus's networks and the graph's user count."""
    graph = SocialGraph.from_edges([], nodes=users)
    return NodeTable(build_all_networks(graph, table)), graph.n_nodes


def _table():
    return EngagementTable.from_records(
        {
            ("f1", "alice"): 1, ("f2", "alice"): 1,          # all fake
            ("f1", "bob"): 1, ("t1", "bob"): 3,              # 1 fake once, 1 true x3
            ("t1", "carol"): 2,                              # test-only user via split
        },
        {"f1": "fake", "f2": "fake", "t1": "true"},
    )


def _classes(codes) -> list:
    return [CLASSES[c] for c in codes.tolist()]


def test_all_fake_history_scores_one():
    history = _history(_table())
    for method in METHODS:
        scores, _ = fit(*history, {"f1", "f2", "t1"}, method, 0.5)
        assert scores[ALICE] == 1.0


def test_mixed_history_example():
    history = _history(_table())
    by_news, _ = fit(*history, {"f1", "f2", "t1"}, BY_NEWS, 0.5)
    by_freq, _ = fit(*history, {"f1", "f2", "t1"}, BY_FREQUENCY, 0.5)
    assert by_news[BOB] == 0.5       # 1 fake of 2 news
    assert by_freq[BOB] == 0.25      # 1 of 4 spreads


def test_no_training_history_gets_theta():
    scores, codes = fit(*_history(_table()), {"f1", "f2"}, BY_NEWS, theta=0.5)
    assert scores[CAROL] == 0.5
    assert _classes(codes)[CAROL] == UNKNOWN


def test_classification_boundaries():
    history = _history(_table())
    _, codes = fit(*history, {"f1", "f2", "t1"}, BY_NEWS, 0.5)
    assert _classes(codes)[ALICE] == SUSCEPTIBLE   # 1.0 > 0.5
    assert _classes(codes)[BOB] == UNKNOWN         # exactly theta
    _, codes_low = fit(*history, {"f1", "f2", "t1"}, BY_NEWS, 0.9)
    assert _classes(codes_low)[BOB] == NORMAL      # 0.5 < 0.9


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9, 1.0])
def test_classify_all_matches_score_and_classify(theta):
    # every graph user's score and class equal the id-keyed dict fit's
    untrained = 0
    for seed in range(10):
        graph, table = random_corpus(seed)
        history = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
        training = table.news_ids()[::2]
        for method in METHODS:
            scores, codes = fit(*history, training, method, theta)
            model = dict_fit(table, training, method, theta)
            assert scores.tolist() == [model.score(u) for u in graph.users]
            assert _classes(codes) == [model.classify(u) for u in graph.users]
            untrained += sum(u not in model.scores for u in graph.users)
    assert untrained > 0


def test_empty_training_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit(*_history(_table()), set(), BY_NEWS, 0.5)


def test_training_ids_must_be_labeled():
    with pytest.raises(ValueError, match="not in corpus"):
        fit(*_history(_table()), {"zz"}, BY_NEWS, 0.5)


def test_method_and_theta_are_checked():
    history = _history(_table())
    with pytest.raises(ValueError, match="method must be one of"):
        fit(*history, {"f1"}, "by_votes", 0.5)
    for theta in (-0.1, 1.5):
        with pytest.raises(ValueError, match="theta must be in"):
            fit(*history, {"f1"}, BY_NEWS, theta)


def test_scores_in_unit_interval():
    for seed in range(20):
        graph, table = random_corpus(seed)
        history = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
        training = set(table.news_ids()[: max(1, len(table.news_ids()) // 2)])
        for method in METHODS:
            scores, _ = fit(*history, training, method, 0.3)
            assert ((0.0 <= scores) & (scores <= 1.0)).all()


def test_leakage_safety_scores_ignore_test_labels():
    for seed in range(10):
        graph, table = random_corpus(seed)
        news = table.news_ids()
        training = set(news[: len(news) // 2]) or {news[0]}
        permuted = dict(table.labels)
        outside = [n for n in news if n not in training]
        flipped = {n: ("true" if permuted[n] == "fake" else "fake") for n in outside}
        permuted.update(flipped)
        records = {(n, u): c for n, by_user in table.counts.items()
                   for u, c in by_user.items()}
        table2 = EngagementTable.from_records(records, permuted)
        h1 = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
        h2 = (NodeTable(build_all_networks(graph, table2)), graph.n_nodes)
        for method in METHODS:
            s1, c1 = fit(*h1, training, method, 0.5)
            s2, c2 = fit(*h2, training, method, 0.5)
            assert s1.tolist() == s2.tolist(), (seed, method)
            assert c1.tolist() == c2.tolist(), (seed, method)


def test_methods_agree_when_all_counts_one():
    records = {}
    labels = {}
    rng = random.Random(0)
    users = [f"u{k}" for k in range(15)]
    for i in range(12):
        news = f"n{i}"
        labels[news] = rng.choice(["fake", "true"])
        for u in rng.sample(users, 4):
            records[(news, u)] = 1
    history = _history(EngagementTable.from_records(records, labels), users)
    by_news, _ = fit(*history, set(labels), BY_NEWS, 0.5)
    by_freq, _ = fit(*history, set(labels), BY_FREQUENCY, 0.5)
    assert by_news.tolist() == by_freq.tolist()


def test_theta_extremes():
    graph, table = random_corpus(4)
    history = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
    training = set(table.news_ids())
    fakes = {n for n, label in table.labels.items() if label == "fake"}
    spread: dict = {}
    for news, by_user in table.counts.items():
        for user in by_user:
            spread.setdefault(graph.users.index(user), set()).add(news)
    at_zero = _classes(fit(*history, training, BY_NEWS, 0.0)[1])
    at_one = _classes(fit(*history, training, BY_NEWS, 1.0)[1])
    for rank, news in sorted(spread.items()):
        if news & fakes:
            assert at_zero[rank] == SUSCEPTIBLE  # S > 0
        if news - fakes:
            assert at_one[rank] == NORMAL  # S < 1
