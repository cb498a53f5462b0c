import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsnet import cli
from newsnet.corpus import (CorpusError, EngagementTable, SocialGraph, corpus_stats,
                            load_corpus, save_corpus)
from newsnet.synth import SyntheticSpec, generate, write_corpus
from newsnet.util import distinct

from oracles import graph_with_users, id_records, random_corpus, same_graph, string_graph

STATS_KEYS = ["n_users", "n_follow_edges", "n_engagement_records", "n_news", "n_fake",
              "n_true"]


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
    assert table.counts["n1"] == {0: 2, 1: 1}  # u1, u2 by rank
    assert id_records(graph, table) == {("n1", "u1"): 2, ("n1", "u2"): 1, ("n2", "u3"): 1}
    graph = string_graph(graph)
    assert graph.nodes == {"u1", "u2", "u3"}
    assert ("u1", "u2") in graph.edges and ("u2", "u1") in graph.edges
    assert table.labels == {"n1": "fake", "n2": "true"}


def test_empty_engagements_gives_zero_news(tmp_path):
    paths = write_corpus_files(tmp_path, [("u1", "u2")], [], [])
    graph, table = load_corpus(*paths)
    stats = corpus_stats(graph, table)
    assert stats["n_engagement_records"] == 0
    assert len(table.labels) == 0
    assert stats["n_news"] == 0 and stats["n_fake"] == 0 and stats["n_true"] == 0


def test_duplicate_engagement_rows_sum(tmp_path):
    paths = write_corpus_files(
        tmp_path,
        [("u1", "u2")],
        [("n1", "u1", 2), ("n1", "u1", 3)],
        [("n1", "fake")],
    )
    graph, table = load_corpus(*paths)
    assert table.counts["n1"][graph.users.index("u1")] == 5
    assert corpus_stats(graph, table)["n_engagement_records"] == 1


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
    assert same_graph(graph, expected)
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
    graph = graph_with_users([("a", "b"), ("b", "c")], ["a", "b", "c", "d"])
    # (a, b), (b, a), (b, c), (c, d), (d, d), (d, a) as ranks
    assert graph.follows([0, 1, 1, 2, 3, 3], [1, 0, 2, 3, 3, 0]).tolist() \
        == [True, False, True, False, False, False]
    assert graph.follows([], []).tolist() == []


def test_from_edges_errors():
    with pytest.raises(ValueError, match="self-loop edge on 'a'"):
        SocialGraph.from_edges([("a", "z"), ("a", "a")])


@pytest.mark.parametrize("rows,expected", [
    ([("n1", "u1", "x")], "integer"),
    ([("n1", "u1", "0")], ">= 1"),
    ([("n1", "u9", "1")], "unknown user"),
    ([("n9", "u1", "1")], "unlabeled news"),
    ([("n1", "u1", str(2**53 - 3))], "above 2**53"),  # (n1, u1) sums to 2**53 + 1
    ([("n1", "u2", "99999999999999999999")], "above 2**53"),  # beyond int64
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


def test_count_bound_is_two_to_the_53(tmp_path):
    # int64 arrays and float64 features hold every count up to 2**53 exactly
    edges = [("u1", "u2")]
    paths = write_corpus_files(tmp_path, edges, [("n1", "u1", 2**53)], [("n1", "fake")])
    graph, table = load_corpus(*paths)
    assert id_records(graph, table) == {("n1", "u1"): 2**53}
    paths = write_corpus_files(tmp_path, edges, [("n1", "u1", 2**53 + 1)], [("n1", "fake")])
    with pytest.raises(CorpusError, match=r"engagements.csv:2: .*above 2\*\*53"):
        load_corpus(*paths)
    table = EngagementTable.from_records(graph, {("n1", "u1"): 2**53}, {"n1": "fake"})
    assert id_records(graph, table) == {("n1", "u1"): 2**53}
    with pytest.raises(ValueError,
                       match=rf"count for \('n1', 'u1'\) sums to {2**53 + 1}, above 2\*\*53"):
        EngagementTable.from_records(graph, {("n1", "u1"): 2**53 + 1}, {"n1": "fake"})


@pytest.mark.parametrize("engagement,label,message", [
    (None, ("n1", "maybe"), "label must be 'fake' or 'true', got 'maybe'"),
    (("n9", "u1", 1), ("n1", "fake"), "engagement references unlabeled news 'n9'"),
    (("n1", "u1", 0), ("n1", "fake"), "count must be >= 1, got 0"),
    (("n1", "u9", 1), ("n1", "fake"), "engagement references unknown user 'u9'"),
    (("n1", "u1", 2**53 + 1), ("n1", "fake"),
     f"count for ('n1', 'u1') sums to {2**53 + 1}, above 2**53"),
])
def test_loader_and_from_records_apply_one_rule_set(tmp_path, engagement, label, message):
    # the loader prefixes its file and line; in-memory records have neither
    paths = write_corpus_files(tmp_path, [("u1", "u2")], [engagement] if engagement else [],
                               [label])
    with pytest.raises(CorpusError) as err:
        load_corpus(*paths)
    name = "labels.csv" if engagement is None else "engagements.csv"
    assert str(err.value) == f"{name}:2: {message}"
    graph = SocialGraph.from_edges([("u1", "u2")])
    records = {engagement[:2]: engagement[2]} if engagement else {}
    with pytest.raises(ValueError) as err:
        EngagementTable.from_records(graph, records, dict([label]))
    assert str(err.value) == message


@pytest.mark.parametrize("count", [2.7, 2.0, True, float("inf"), None])
def test_from_records_count_is_an_integer_or_a_decimal_string(count):
    # the loader rejects "2.7" and "true"; a record's float or bool is no integer either
    graph = SocialGraph.from_edges([("u1", "u2")])
    with pytest.raises(CorpusError) as err:
        EngagementTable.from_records(graph, {("n1", "u1"): count}, {"n1": "fake"})
    assert str(err.value) == f"count must be an integer, got {count!r}"


def test_from_records_reads_integral_counts_and_decimal_strings():
    graph = SocialGraph.from_edges([("u1", "u2")])
    table = EngagementTable.from_records(graph, {("n1", "u1"): np.int64(3), ("n1", "u2"): "4"},
                                         {"n1": "fake"})
    assert table.counts == {"n1": {0: 3, 1: 4}}
    assert all(type(count) is int for count in table.counts["n1"].values())


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


@pytest.mark.parametrize("file,body,message", [
    (0, '"u\n1",u2\nu2,u3\nu3,\n', "edges.csv:5: empty field"),
    (1, 'n1,"u\n1",1\nn1,u9,1\n', "engagements.csv:4: engagement references unknown user 'u9'"),
    (2, '"n\n1",fake\nn2,maybe\n', "labels.csv:4: label must be 'fake' or 'true', got 'maybe'"),
], ids=["edges", "engagements", "labels"])
def test_errors_name_the_physical_line_after_a_multi_line_id(tmp_path, file, body, message):
    # a quoted id may hold a newline (save_corpus's csv.writer quotes it), so
    # one row can span two lines; later errors name the line they are on
    paths = write_corpus_files(tmp_path, [('"u\n1"', "u2")], [], [("n1", "fake")])
    header = paths[file].read_text().split("\n")[0]
    paths[file].write_text(f"{header}\n{body}")
    with pytest.raises(CorpusError) as err:
        load_corpus(*paths)
    assert str(err.value) == message


@pytest.mark.parametrize("file,body,message", [
    (0, "u1,u2\n , \nu2,u3\n", None),  # a whitespace-only row is skipped
    (0, "u1,u2\n\nu2,u3\n", None),  # so is an empty line
    (0, "u1,u2\n\n , \nu2,u3\nu4\n", "edges.csv:6: expected 2 columns, got 1"),
    (1, "n1,u1,1\nn1,\n", "engagements.csv:3: expected 3 columns, got 2"),  # count first
    (1, "n1,u1,1\nn1, ,1\n", "engagements.csv:3: empty field"),
    (2, "n1,fake\n,true\n", "labels.csv:3: empty field"),
], ids=["whitespace-row", "empty-line", "line-after-blanks", "short-row", "blank-cell",
        "empty-cell"])
def test_row_rules(tmp_path, file, body, message):
    paths = write_corpus_files(tmp_path, [("u1", "u2"), ("u2", "u3")], [("n1", "u1", 1)],
                               [("n1", "fake")])
    expected = corpus_stats(*load_corpus(*paths))
    header = paths[file].read_text().split("\n")[0]
    paths[file].write_text(f"{header}\n{body}")
    if message is None:
        assert corpus_stats(*load_corpus(*paths)) == expected
    else:
        with pytest.raises(CorpusError) as err:
            load_corpus(*paths)
        assert str(err.value) == message


def test_loader_stops_at_the_first_bad_row(tmp_path, monkeypatch):
    # rows are checked as they are read: none past the bad one is read
    real_reader = csv.reader

    class CountingReader:
        data_rows = -1  # the header is not a data row

        def __init__(self, f):
            self.reader = real_reader(f)

        @property
        def line_num(self):
            return self.reader.line_num

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.reader)
            CountingReader.data_rows += 1
            return row

    paths = write_corpus_files(tmp_path, [("u1", "u2")], [], [])
    paths[0].write_text("follower,followee\nu1,u2\nu3\n" + "u2,u3\n" * 10_000)
    monkeypatch.setattr("newsnet.corpus.csv.reader", CountingReader)
    with pytest.raises(CorpusError) as err:
        load_corpus(*paths)
    assert str(err.value) == "edges.csv:3: expected 2 columns, got 1"
    assert CountingReader.data_rows == 2


@pytest.mark.parametrize("file", range(3))
@pytest.mark.parametrize("repeats", [0, 1, 2000])
def test_non_utf8_file_raises_naming_it(tmp_path, file, repeats):
    # a 0xff byte in the header, after one row, or past the first chunk
    # (8 KiB) the reader decodes
    paths = write_corpus_files(tmp_path, [("u1", "u2")] * repeats,
                               [("n1", "u1", 1)] * repeats, [("n1", "fake")] * repeats)
    text = paths[file].read_bytes()
    bad = b"\xff" + text[1:] if repeats == 0 else text + b"n\xff1,u1,1\n"
    paths[file].write_bytes(bad)
    with pytest.raises(CorpusError) as err:
        load_corpus(*paths)
    assert str(err.value) == f"{paths[file].name}: not UTF-8 text"


def test_round_trip(tmp_path):
    graph, table = random_corpus(seed=5)
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    save_corpus(graph, table, *paths)
    graph2, table2 = load_corpus(*paths)
    # user set differs only by isolated users, which edges.csv cannot carry
    assert string_graph(graph2).edges == string_graph(graph).edges
    assert id_records(graph2, table2) == id_records(graph, table)
    assert table2.labels == table.labels


@pytest.mark.parametrize("seed", range(30))
def test_property_save_then_load_is_the_identity(tmp_path, seed):
    graph, table = random_corpus(seed)
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    endpoints = {user for edge in string_graph(graph).edges for user in edge}
    stranded = [(news, graph.users[rank]) for news in table.news_ids()
                for rank in sorted(table.counts[news]) if graph.users[rank] not in endpoints]
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
    assert id_records(graph2, table2) == id_records(graph, table)
    assert table2.labels == table.labels


@pytest.mark.parametrize("seed", range(10))
def test_loaded_table_equals_from_records(tmp_path, seed):
    # load_corpus checks and sums rows as it reads them; the table is the one
    # from_records builds from the same records, also when each count is
    # split over two rows
    corpus = generate(SyntheticSpec(n_users=40, news_per_class=5, seed=seed))
    write_corpus(corpus, tmp_path)
    paths = (tmp_path / "edges.csv", tmp_path / "engagements.csv", tmp_path / "labels.csv")
    records = id_records(corpus.graph, corpus.table)
    expected = EngagementTable.from_records(corpus.graph, records, corpus.table.labels)
    assert load_corpus(*paths)[1] == expected
    rows = [(news, user, part) for (news, user), count in records.items()
            for part in ([count] if count == 1 else [1, count - 1])]
    np.random.default_rng(seed).shuffle(rows)
    paths[1].write_text("news_id,user_id,count\n"
                        + "".join(f"{n},{u},{c}\n" for n, u, c in rows))
    assert load_corpus(*paths)[1] == expected


def test_save_rejects_a_spreader_without_follow_edges(tmp_path):
    graph = graph_with_users([("u1", "u2")], ["u1", "u2", "u3", "u4"])
    table = EngagementTable.from_records(
        graph, {("n1", "u1"): 1, ("n2", "u4"): 2, ("n2", "u3"): 1},
        {"n1": "fake", "n2": "true"})
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    with pytest.raises(CorpusError, match="spreader 'u3' of news 'n2' has no follow edge"):
        save_corpus(graph, table, *paths)
    assert not any(path.exists() for path in paths)


@pytest.mark.parametrize("edges, records, labels, name", [
    # ' x' and 'x' would load back as one user 'x' with their counts summed
    ([(" x", "a"), ("x", "b")], {("n1", " x"): 1, ("n1", "x"): 2}, {"n1": "fake"}, " x"),
    # ' n1' and 'n1' would load back as one news with conflicting labels
    ([("a", "b")], {("n1", "a"): 1, (" n1", "b"): 1}, {"n1": "fake", " n1": "true"}, " n1"),
    ([("", "a")], {("n1", "a"): 1}, {"n1": "fake"}, ""),
], ids=["user", "news", "empty"])
def test_save_rejects_ids_the_loader_would_strip(tmp_path, edges, records, labels, name):
    graph = SocialGraph.from_edges(edges)
    table = EngagementTable.from_records(graph, records, labels)
    paths = (tmp_path / "e.csv", tmp_path / "g.csv", tmp_path / "l.csv")
    with pytest.raises(CorpusError, match=f"id {name!r} is empty or has surrounding"):
        save_corpus(graph, table, *paths)
    assert not any(path.exists() for path in paths)


def test_synthetic_round_trip_exact(tmp_path):
    corpus = generate(SyntheticSpec(n_users=40, news_per_class=5, seed=3))
    write_corpus(corpus, tmp_path)
    graph, table = load_corpus(tmp_path / "edges.csv", tmp_path / "engagements.csv",
                               tmp_path / "labels.csv")
    assert same_graph(graph, corpus.graph)  # generator guarantees no isolated users
    assert table == corpus.table


def test_stats_single_user_no_edges():
    graph = graph_with_users([], ["u1"])
    table = EngagementTable.from_records(graph, {("n1", "u1"): 1}, {"n1": "fake"})
    assert corpus_stats(graph, table) == dict(zip(STATS_KEYS, (1, 0, 1, 1, 1, 0)))


def test_stats_match_generator_bookkeeping():
    corpus = generate(SyntheticSpec(n_users=100, news_per_class=10, seed=9))
    stats = corpus_stats(corpus.graph, corpus.table)
    assert stats == {key: corpus.truth[key] for key in STATS_KEYS}


def test_stats_json_fields(tmp_path, capsys):
    edges, engagements, labels = write_corpus_files(tmp_path, [("u1", "u2")],
                                                    [("n1", "u1", 1)], [("n1", "true")])
    assert cli.main(["stats", "--edges", str(edges), "--engagements", str(engagements),
                     "--labels", str(labels)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data) == STATS_KEYS
    assert data == dict(zip(STATS_KEYS, (2, 1, 1, 1, 0, 1)))
