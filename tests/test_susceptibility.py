import random

import pytest

from newsnet.corpus import EngagementTable
from newsnet.diffusion import build_all_networks
from newsnet.features import NodeTable
from newsnet.susceptibility import (BY_FREQUENCY, BY_NEWS, CLASSES, METHODS, NORMAL,
                                    SUSCEPTIBLE, UNKNOWN, fit_all)

from oracles import fit as dict_fit
from oracles import graph_with_users, id_records, random_corpus

ALICE, BOB, CAROL = range(3)  # graph ranks, in sorted id order


RECORDS = {
    ("f1", "alice"): 1, ("f2", "alice"): 1,          # all fake
    ("f1", "bob"): 1, ("t1", "bob"): 3,              # 1 fake once, 1 true x3
    ("t1", "carol"): 2,                              # test-only user via split
}
LABELS = {"f1": "fake", "f2": "fake", "t1": "true"}


def _history(records=RECORDS, labels=LABELS, users=("alice", "bob", "carol")):
    """The node table of the corpus's networks and the graph's user count."""
    graph = graph_with_users([], users)
    table = EngagementTable.from_records(graph, records, labels)
    return NodeTable(build_all_networks(graph, table)), graph.n_nodes


def _classes(codes) -> list:
    return [CLASSES[c] for c in codes.tolist()]


def test_all_fake_history_scores_one():
    history = _history()
    for method in METHODS:
        scores, _ = fit_all(*history, {"f1", "f2", "t1"}, 0.5)[method]
        assert scores[ALICE] == 1.0


def test_mixed_history_example():
    history = _history()
    by_news, _ = fit_all(*history, {"f1", "f2", "t1"}, 0.5)[BY_NEWS]
    by_freq, _ = fit_all(*history, {"f1", "f2", "t1"}, 0.5)[BY_FREQUENCY]
    assert by_news[BOB] == 0.5       # 1 fake of 2 news
    assert by_freq[BOB] == 0.25      # 1 of 4 spreads


def test_no_training_history_gets_theta():
    scores, codes = fit_all(*_history(), {"f1", "f2"}, 0.5)[BY_NEWS]
    assert scores[CAROL] == 0.5
    assert _classes(codes)[CAROL] == UNKNOWN


def test_classification_boundaries():
    history = _history()
    _, codes = fit_all(*history, {"f1", "f2", "t1"}, 0.5)[BY_NEWS]
    assert _classes(codes)[ALICE] == SUSCEPTIBLE   # 1.0 > 0.5
    assert _classes(codes)[BOB] == UNKNOWN         # exactly theta
    _, codes_low = fit_all(*history, {"f1", "f2", "t1"}, 0.9)[BY_NEWS]
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
            scores, codes = fit_all(*history, training, theta)[method]
            model = dict_fit(graph, table, training, method, theta)
            assert scores.tolist() == [model.score(u) for u in graph.users]
            assert _classes(codes) == [model.classify(u) for u in graph.users]
            untrained += sum(u not in model.scores for u in graph.users)
    assert untrained > 0


def test_empty_training_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit_all(*_history(), set(), 0.5)


def test_training_ids_must_be_labeled():
    with pytest.raises(ValueError, match="not in corpus"):
        fit_all(*_history(), {"zz"}, 0.5)


def test_theta_is_checked():
    history = _history()
    for theta in (-0.1, 1.5):
        with pytest.raises(ValueError, match="theta must be in"):
            fit_all(*history, {"f1"}, theta)


def test_scores_in_unit_interval():
    for seed in range(20):
        graph, table = random_corpus(seed)
        history = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
        training = set(table.news_ids()[: max(1, len(table.news_ids()) // 2)])
        for method in METHODS:
            scores, _ = fit_all(*history, training, 0.3)[method]
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
        table2 = EngagementTable.from_records(graph, id_records(graph, table), permuted)
        h1 = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
        h2 = (NodeTable(build_all_networks(graph, table2)), graph.n_nodes)
        for method in METHODS:
            s1, c1 = fit_all(*h1, training, 0.5)[method]
            s2, c2 = fit_all(*h2, training, 0.5)[method]
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
    history = _history(records, labels, users)
    by_news, _ = fit_all(*history, set(labels), 0.5)[BY_NEWS]
    by_freq, _ = fit_all(*history, set(labels), 0.5)[BY_FREQUENCY]
    assert by_news.tolist() == by_freq.tolist()


def test_theta_extremes():
    graph, table = random_corpus(4)
    history = (NodeTable(build_all_networks(graph, table)), graph.n_nodes)
    training = set(table.news_ids())
    fakes = {n for n, label in table.labels.items() if label == "fake"}
    spread: dict = {}
    for news, by_rank in table.counts.items():
        for rank in by_rank:
            spread.setdefault(rank, set()).add(news)
    at_zero = _classes(fit_all(*history, training, 0.0)[BY_NEWS][1])
    at_one = _classes(fit_all(*history, training, 1.0)[BY_NEWS][1])
    for rank, news in sorted(spread.items()):
        if news & fakes:
            assert at_zero[rank] == SUSCEPTIBLE  # S > 0
        if news - fakes:
            assert at_one[rank] == NORMAL  # S < 1
