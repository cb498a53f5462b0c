import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet.corpus import (CorpusError, EngagementTable, SocialGraph, corpus_stats,
                            load_corpus, save_corpus)
from newsnet.synth import SyntheticSpec, generate, write_corpus
from newsnet.util import distinct

from oracles import random_corpus, string_graph


def write_corpus_files(tmp_path, edge_rows, engagement_rows, label_rows):
    edges = tmp_path / "edges.csv"
    engagements = tmp_path / "engagements.csv"
    labels = tmp_path / "labels.csv"
    edges.write_text("follower,followee\n" + "".join(f"{a},{b}\n" for a, b in edge_rows))
    engagements.write_text("news_id,user_id,count\n"
                           + "".join(f"{n},{u},{c}\n" for n, u, c in engagement_rows))
    labels.write_text("news_id,label\n" + "".join(f"{n},{l}\n" for n, l in label_rows))
    return edges, engagements, labels


def test_load_simple_corpus(tmp_path):
    paths = write_corpus_files(
        tmp_path,
        [("u1", "u2"), ("u2", "u1"), ("u2", "u3")],
        [("n1", "u1", 2), ("n1", "u2", 1), ("n2", "u3", 1)],
        [("n1", "fake"), ("n2", "true")],
    )
    graph, table = load_corpus(*paths)
    graph = string_graph(graph)
    assert graph.nodes == {"u1", "u2", "u3"}
    assert ("u1", "u2") in graph.edges and ("u2", "u1") in graph.edges
    assert table.counts["n1"] == {"u1": 2, "u2": 1}
    assert table.labels == {"n1": "fake", "n2": "true"}


def test_empty_engagements_gives_zero_news(tmp_path):
    paths = write_corpus_files(tmp_path, [("u1", "u2")], [], [])
    graph, table = load_corpus(*paths)
    assert table.n_records == 0
    assert len(table.labels) == 0
    stats = corpus_stats(graph, table)
    assert stats.n_news == 0 and stats.n_fake == 0 and stats.n_true == 0


def test_duplicate_engagement_rows_sum(tmp_path):
    paths = write_corpus_files(
        tmp_path,
        [("u1", "u2")],
        [("n1", "u1", 2), ("n1", "u1", 3)],
        [("n1", "fake")],
    )
    _, table = load_corpus(*paths)
    assert table.counts["n1"]["u1"] == 5
    assert table.n_records == 1


def test_self_loop_and_duplicate_edges_dropped(tmp_path, caplog):
    paths = write_corpus_files(
        tmp_path,
        [("u1", "u1"), ("u1", "u2"), ("u1", "u2"), ("u2", "u3")],
        [],
        [],
    )
    with caplog.at_level("WARNING"):
        graph, _ = load_corpus(*paths)
    assert string_graph(graph).edges == {("u1", "u2"), ("u2", "u3")}
    messages = " ".join(r.getMessage() for r in caplog.records)
    assert "1 self-loop" in messages and "1 duplicate" in messages


def test_dropped_edge_counts_and_warnings(tmp_path, caplog):
    # u9 appears only in a self-loop, so it is not a user
    paths = write_corpus_files(
        tmp_path,
        [("u2", "u1"), ("u9", "u9"), ("u1", "u2"), ("u2", "u1"), ("u1", "u1"),
         ("u3", "u1"), ("u2", "u1"), ("u1", "u2"), ("u2", "u2")],
        [],
        [("n1", "fake")],
    )
    with caplog.at_level("WARNING", logger="newsnet.corpus"):
        graph, _ = load_corpus(*paths)
    assert [r.getMessage() for r in caplog.records] == [
        "edges.csv: dropped 3 self-loop edge(s)",
        "edges.csv: dropped 3 duplicate edge(s)",
    ]
    assert graph.users == ("u1", "u2", "u3")
    assert graph.n_edges == 3
    paths[1].write_text("news_id,user_id,count\nn1,u9,1\n")
    with pytest.raises(CorpusError, match="engagements.csv:2: .*unknown user 'u9'"):
        load_corpus(*paths)


USER_IDS = ["b", "a", "c10", "c9", "~x", "A", "a b"]
edge_lists = st.lists(st.tuples(st.sampled_from(USER_IDS), st.sampled_from(USER_IDS)),
                      max_size=40)


@settings(max_examples=60)
@given(edge_lists)
def test_property_loaded_arrays_equal_from_edges(rows):
    # Loading interns ids in file order; from_edges sees the same string
    # pairs. Both give users in sorted order and each CSR row ascending.
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_corpus_files(Path(tmp), rows, [], [])
        graph, _ = load_corpus(*paths)
    pairs = [(u, v) for u, v in rows if u != v]
    expected = SocialGraph.from_edges(pairs)
    assert graph == expected
    assert graph.users == tuple(sorted({u for pair in pairs for u in pair}))
    assert string_graph(graph).edges == set(pairs)
    rank = {u: i for i, u in enumerate(graph.users)}
    in_csr_order = [(rank[u], rank[v]) for u, v in sorted(set(pairs))]
    assert list(zip(graph.sources().tolist(), graph.indices.tolist())) == in_csr_order
    assert graph.follows([rank[u] for u, _ in pairs], [rank[v] for _, v in pairs]).all()


@pytest.mark.parametrize("values", [[], [3], [5, 1, 5, 2, 1, 1], list(range(40, -40, -3)) * 3])
def test_distinct_equals_np_unique(values):
    values = np.array(values, dtype=np.int64)
    assert distinct(values).tolist() == np.unique(values).tolist()


def test_loaded_graph_stores_edges_only_as_int_arrays(tmp_path):
    corpus = generate(SyntheticSpec(n_users=40, news_per_class=5, seed=3))
    write_corpus(corpus, tmp_path)
    graph, _ = load_corpus(tmp_path / "edges.csv", tmp_path / "engagements.csv",
                           tmp_path / "labels.csv")
    assert set(vars(graph)) == {f.name for f in dataclasses.fields(graph)} \
        == {"users", "indptr", "indices"}
    assert isinstance(graph.users, tuple) and all(isinstance(u, str) for u in graph.users)
    for array in (graph.indptr, graph.indices):
        assert isinstance(array, np.ndarray) and array.dtype == np.int64
    assert graph.indptr.size == graph.n_nodes + 1 and graph.indptr[-1] == graph.n_edges


def test_follows_checks_each_pair():
    graph = SocialGraph.from_edges([("a", "b"), ("b", "c")], nodes=["a", "b", "c", "d"])
    # (a, b), (b, a), (b, c), (c, d), (d, d), (d, a) as ranks
    assert graph.follows([0, 1, 1, 2, 3, 3], [1, 0, 2, 3, 3, 0]).tolist() \
        == [True, False, True, False, False, False]
    assert graph.follows([], []).tolist() == []
    ranks = graph.ranks(["d", "z", "a"])
    assert ranks.dtype == np.int64 and ranks.tolist() == [3, -1, 0]
    assert graph.ranks([]).tolist() == []


def test_from_edges_errors():
    with pytest.raises(ValueError, match="self-loop edge on 'a'"):
        SocialGraph.from_edges([("a", "z"), ("a", "a")], nodes=["a"])
    with pytest.raises(ValueError, match=r"edge endpoint not a declared node: \('a', 'z'\)"):
        SocialGraph.from_edges([("a", "b"), ("a", "z")], nodes=["a", "b"])


@pytest.mark.parametrize("rows,expected", [
    ([("n1", "u1", "x")], "integer"),
    ([("n1", "u1", "0")], ">= 1"),
    ([("n1", "u9", "1")], "unknown user"),
    ([("n9", "u1", "1")], "unlabeled news"),
])
def test_malformed_engagements_raise(tmp_path, rows, expected):
    # the bad row comes after good ones, one of them a duplicate to be summed
    good = [("n1", "u1", "1"), ("n1", "u2", "2"), ("n1", "u1", "3")]
    paths = write_corpus_files(tmp_path, [("u1", "u2")], good + rows + good,
                               [("n1", "fake")])
    with pytest.raises(CorpusError) as err:
        load_corpus(*paths)
    assert expected in str(err.value)
    assert "engagements.csv:5:" in str(err.value)  # line number reported


def test_conflicting_label_raises(tmp_path):
    paths = write_corpus_files(tmp_path, [("u1", "u2")], [],
                               [("n1", "fake"), ("n1", "true")])
    with pytest.raises(CorpusError, match="conflicting label"):
        load_corpus(*paths)


def test_bad_header_raises(tmp_path):
    paths = write_corpus_files(tmp_path, [], [], [])
    paths[0].write_text("src,dst\nu1,u2\n")
    with pytest.raises(CorpusError, match="header"):
        load_corpus(*paths)


def test_wrong_column_count_reports_line(tmp_path):
    paths = write_corpus_files(tmp_path, [], [], [])
    paths[0].write_text("follower,followee\nu1,u2\nu3\n")
    with pytest.raises(CorpusError, match="edges.csv:3"):
        load_corpus(*paths)


def test_round_trip(tmp_path):
    graph, table = random_corpus(seed=5)
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    save_corpus(graph, table, *paths)
    graph2, table2 = load_corpus(*paths)
    # user set differs only by isolated users, which edges.csv cannot carry
    assert string_graph(graph2).edges == string_graph(graph).edges
    assert table2.counts == table.counts
    assert table2.labels == table.labels


@pytest.mark.parametrize("seed", range(30))
def test_property_save_then_load_is_the_identity(tmp_path, seed):
    graph, table = random_corpus(seed)
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    endpoints = {user for edge in string_graph(graph).edges for user in edge}
    stranded = [(news, user) for news in table.news_ids()
                for user in sorted(table.counts[news]) if user not in endpoints]
    if stranded:
        news, user = stranded[0]
        with pytest.raises(CorpusError, match=f"spreader '{user}' of news '{news}'"):
            save_corpus(graph, table, *paths)
        assert not any(path.exists() for path in paths)
        return
    save_corpus(graph, table, *paths)
    graph2, table2 = load_corpus(*paths)
    assert string_graph(graph2).edges == string_graph(graph).edges
    assert string_graph(graph2).nodes == endpoints
    assert table2.counts == table.counts
    assert table2.labels == table.labels


def _records(table) -> dict:
    return {(news, user): count for news, by_user in table.counts.items()
            for user, count in by_user.items()}


@pytest.mark.parametrize("seed", range(10))
def test_loaded_table_equals_from_records(tmp_path, seed):
    # load_corpus checks and sums rows as it reads them; the table is the one
    # from_records builds from the same records, also when each count is
    # split over two rows
    corpus = generate(SyntheticSpec(n_users=40, news_per_class=5, seed=seed))
    write_corpus(corpus, tmp_path)
    paths = (tmp_path / "edges.csv", tmp_path / "engagements.csv", tmp_path / "labels.csv")
    records = _records(corpus.table)
    expected = EngagementTable.from_records(records, corpus.table.labels)
    assert load_corpus(*paths)[1] == expected
    rows = [(news, user, part) for (news, user), count in records.items()
            for part in ([count] if count == 1 else [1, count - 1])]
    np.random.default_rng(seed).shuffle(rows)
    paths[1].write_text("news_id,user_id,count\n"
                        + "".join(f"{n},{u},{c}\n" for n, u, c in rows))
    assert load_corpus(*paths)[1] == expected


def test_save_rejects_a_spreader_without_follow_edges(tmp_path):
    graph = SocialGraph.from_edges([("u1", "u2")], nodes=["u1", "u2", "u3", "u4"])
    table = EngagementTable.from_records(
        {("n1", "u1"): 1, ("n2", "u4"): 2, ("n2", "u3"): 1},
        {"n1": "fake", "n2": "true"})
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    with pytest.raises(CorpusError, match="spreader 'u3' of news 'n2' has no follow edge"):
        save_corpus(graph, table, *paths)
    assert not any(path.exists() for path in paths)


def test_synthetic_round_trip_exact(tmp_path):
    corpus = generate(SyntheticSpec(n_users=40, news_per_class=5, seed=3))
    write_corpus(corpus, tmp_path)
    graph, table = load_corpus(tmp_path / "edges.csv", tmp_path / "engagements.csv",
                               tmp_path / "labels.csv")
    assert graph == corpus.graph  # generator guarantees no isolated users
    assert table == corpus.table


def test_stats_single_user_no_edges():
    graph = SocialGraph.from_edges([], nodes=["u1"])
    table = EngagementTable.from_records({("n1", "u1"): 1}, {"n1": "fake"})
    stats = corpus_stats(graph, table)
    assert (stats.n_users, stats.n_follow_edges, stats.n_engagement_records,
            stats.n_news, stats.n_fake, stats.n_true) == (1, 0, 1, 1, 1, 0)


def test_stats_match_generator_bookkeeping():
    corpus = generate(SyntheticSpec(n_users=100, news_per_class=10, seed=9))
    stats = corpus_stats(corpus.graph, corpus.table)
    truth = corpus.truth
    assert stats.n_users == truth["n_users"]
    assert stats.n_follow_edges == truth["n_follow_edges"]
    assert stats.n_engagement_records == truth["n_engagement_records"]
    assert stats.n_news == truth["n_news"]
    assert stats.n_fake == truth["n_fake"]
    assert stats.n_true == truth["n_true"]


def test_stats_json_fields():
    graph = SocialGraph.from_edges([("u1", "u2")])
    table = EngagementTable.from_records({("n1", "u1"): 1}, {"n1": "true"})
    data = json.loads(corpus_stats(graph, table).to_json())
    assert set(data) == {"n_users", "n_follow_edges", "n_engagement_records",
                         "n_news", "n_fake", "n_true"}
