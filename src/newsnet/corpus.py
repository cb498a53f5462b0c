"""Corpus ingestion: the social follow graph, engagement records and news labels.

Input files are CSV with a header row, UTF-8, comma separated:

  edges.csv:        follower,followee     one directed follow edge per row
  engagements.csv:  news_id,user_id,count spreading counts; duplicate rows for
                                          the same (news, user) are summed,
                                          up to a total of 2**53
  labels.csv:       news_id,label         label is "fake" or "true"

User and news ids are opaque strings. Validation is total: any malformed
input raises CorpusError (with file and line number) instead of producing a
partially constructed corpus. Duplicate follow edges and self-loops are
dropped, counted, and logged rather than raised.

The follow graph is held as integers. `load_corpus` streams edges.csv
into `SocialGraph.from_edges`, which numbers each user id on first sight
and appends the two numbers of every edge to int arrays; no set of id pairs
is ever built. At the end the users are renumbered by sorted id (a user's
rank), and the edges, deduplicated by one sort of their keys, become an
out-CSR of ranks (`SocialGraph`). Rank order is sorted-id order, so every
loop over sorted ids or sorted id pairs sees the same order over ranks, and
the features computed from ranks are the ones computed from ids. User ids stay
strings at the I/O boundary only: in `SocialGraph.users` and the files
`save_corpus` writes. `load_corpus` turns each engagement row's user id into
its rank as it reads the row, so the engagement table keys each story's
counts by rank, and past `load_corpus` every per-user value (engagement
counts, networks, centralities, communities, susceptibility) is keyed or
indexed by rank. `EngagementTable.from_records` builds a table from
in-memory records through the loader's own row checks; a count there is a
decimal string or an integral number, and a bool or float (even 2.0) is not.
"""

from __future__ import annotations

import csv
import logging
from array import array
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .util import distinct, find, ranges, write_csv

log = logging.getLogger(__name__)

FAKE = "fake"
TRUE = "true"
LABELS = (FAKE, TRUE)
# the largest (news, user) count: int64 arrays and float64 features hold it exactly
MAX_COUNT = 2**53


class CorpusError(ValueError):
    """Structured ingestion error carrying file name and line number."""

    def __init__(self, message: str, file: str | None = None, line: int | None = None):
        self.file = file
        self.line = line
        prefix = ""
        if file is not None:
            prefix = f"{file}:{line}: " if line is not None else f"{file}: "
        super().__init__(prefix + message)


@dataclass(frozen=True, eq=False)
class SocialGraph:
    """Directed follow network shared by every news story (A -> B: A follows B).

    `users` holds every user id in sorted order, and a user's rank is its
    index there. The edges are an out-CSR over ranks: the users that the user
    of rank r follows are `indices[indptr[r]:indptr[r + 1]]`, ascending, so
    the edges in CSR order are the (follower, followee) id pairs in sorted
    order.
    """

    users: tuple
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, edges) -> "SocialGraph":
        """Build a simple directed graph from (follower, followee) id pairs.

        The users are the edge endpoints; duplicate pairs collapse.
        """
        ids: dict = {}  # user id -> first-seen number
        src, dst = array("q"), array("q")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop edge on {u!r}")
            src.append(ids.setdefault(u, len(ids)))
            dst.append(ids.setdefault(v, len(ids)))
        # renumbered by sorted id; one sort of the edge keys drops duplicates
        first_seen = list(ids)
        order = sorted(range(len(first_seen)), key=first_seen.__getitem__)
        n = len(order)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        keys = rank[np.frombuffer(src, dtype=np.int64)] * n
        keys += rank[np.frombuffer(dst, dtype=np.int64)]
        followers, followees = np.divmod(distinct(keys), max(n, 1))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(followers, minlength=n), out=indptr[1:])
        return cls(users=tuple(first_seen[k] for k in order), indptr=indptr,
                   indices=followees)

    @property
    def n_nodes(self) -> int:
        return len(self.users)

    @property
    def n_edges(self) -> int:
        return self.indices.size

    def sources(self) -> np.ndarray:
        """The follower rank of every edge, in CSR order."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def follows(self, followers, followees) -> np.ndarray:
        """For each (followers[i], followees[i]) pair of ranks, whether it is an edge.

        Binary search over the edge keys `follower * n + followee`, which
        CSR order lists ascending.
        """
        n = self.n_nodes
        return find(self.sources() * n + self.indices,
                    np.asarray(followers, dtype=np.int64) * n + followees)[1]


def csr_rows(frontier, csr) -> tuple:
    """The frontier's CSR rows concatenated in frontier order: (row, entry) pairs."""
    indptr, indices = csr
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    return np.repeat(frontier, lens), indices[ranges(starts, lens)]


@dataclass(frozen=True)
class EngagementTable:
    """Per (news, user) spreading counts plus a label for every news story."""

    counts: dict  # news_id -> {user rank: count}
    labels: dict  # news_id -> "fake" | "true"

    @classmethod
    def from_records(cls, graph: SocialGraph, records, labels) -> "EngagementTable":
        """records: mapping (news_id, user_id) -> count; labels: news_id -> label.

        Checked by the rules `load_corpus` applies to its rows, in the same
        order and with the same messages, less the file and line prefix.
        """
        return _table(graph, ((None, row) for row in dict(labels).items()),
                      ((None, (news, user, count)) for (news, user), count in records.items()))

    def news_ids(self) -> list:
        return sorted(self.labels)


def _read_rows(path, expected_header):
    path = Path(path)
    if not path.is_file():
        raise CorpusError("file not found", file=str(path))
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise CorpusError("missing header row", file=path.name, line=1) from None
            header = [h.strip() for h in header]
            if header != list(expected_header):
                raise CorpusError(
                    f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
                    file=path.name,
                    line=1,
                )
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue  # tolerate blank lines
                if len(row) != len(expected_header):
                    raise CorpusError(
                        f"expected {len(expected_header)} columns, got {len(row)}",
                        file=path.name,
                        line=lineno,
                    )
                cells = [c.strip() for c in row]
                if any(not c for c in cells):
                    raise CorpusError("empty field", file=path.name, line=lineno)
                yield lineno, cells
    except UnicodeDecodeError:
        # decoded in chunks, so the error's offset locates no line
        raise CorpusError("not UTF-8 text", file=path.name) from None
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise CorpusError(str(exc), file=path.name, line=reader.line_num) from None
    except OSError as exc:
        raise CorpusError(f"cannot read: {exc.strerror or exc}", file=path.name) from None


def load_corpus(edges_path, engagements_path, labels_path):
    """Load and validate the three corpus files.

    Returns (SocialGraph, EngagementTable). Self-loops and duplicate follow
    edges are dropped (counted in the log); all other violations raise
    CorpusError. Engagement rows are checked once and summed into the table
    as they are read.
    """
    edges_name = Path(edges_path).name
    n_kept = n_self_loops = 0

    def follows():
        nonlocal n_kept, n_self_loops
        for _lineno, edge in _read_rows(edges_path, ("follower", "followee")):
            if edge[0] == edge[1]:
                n_self_loops += 1
            else:
                n_kept += 1
                yield edge

    graph = SocialGraph.from_edges(follows())
    if n_self_loops:
        log.warning("%s: dropped %d self-loop edge(s)", edges_name, n_self_loops)
    if n_kept > graph.n_edges:
        log.warning("%s: dropped %d duplicate edge(s)", edges_name, n_kept - graph.n_edges)
    return graph, _table(graph, _read_rows(labels_path, ("news_id", "label")),
                         _read_rows(engagements_path, ("news_id", "user_id", "count")),
                         Path(labels_path).name, Path(engagements_path).name)


def _table(graph, label_rows, engagement_rows, labels_name=None,
           engage_name=None) -> EngagementTable:
    """The table of (line, cells) label and engagement rows, checked row by row.

    Each user id becomes its graph rank; rows for the same (news, user) are
    summed. An error names the file and line when given a file name.
    """
    labels: dict = {}
    for lineno, (news, label) in label_rows:
        if label not in LABELS:
            raise CorpusError(f"label must be 'fake' or 'true', got {label!r}",
                              file=labels_name, line=lineno)
        if news in labels and labels[news] != label:
            raise CorpusError(f"conflicting label for news {news!r}",
                              file=labels_name, line=lineno)
        labels[news] = label

    rank = dict(zip(graph.users, range(graph.n_nodes)))
    counts: dict = {news: {} for news in labels}
    for lineno, (news, user, count) in engagement_rows:
        try:
            if not isinstance(count, (str, Integral)) or isinstance(count, bool):
                raise ValueError
            value = int(count)
        except ValueError:
            raise CorpusError(f"count must be an integer, got {count!r}",
                              file=engage_name, line=lineno) from None
        if value < 1:
            raise CorpusError(f"count must be >= 1, got {value}",
                              file=engage_name, line=lineno)
        if news not in labels:
            raise CorpusError(f"engagement references unlabeled news {news!r}",
                              file=engage_name, line=lineno)
        r = rank.get(user)
        if r is None:
            raise CorpusError(f"engagement references unknown user {user!r}",
                              file=engage_name, line=lineno)
        by_rank = counts[news]
        total = by_rank.get(r, 0) + value  # shard-merge by summation
        if total > MAX_COUNT:
            raise CorpusError(f"count for ({news!r}, {user!r}) sums to {total}, "
                              "above 2**53", file=engage_name, line=lineno)
        by_rank[r] = total
    return EngagementTable(counts=counts, labels=labels)


def save_corpus(graph: SocialGraph, table: EngagementTable,
                edges_path, engagements_path, labels_path) -> None:
    """Write a corpus back to the three-file CSV format (sorted, canonical).

    The files' directories must exist. edges.csv lists follow edges only, and
    `load_corpus` gives back the edge endpoints as the user set. A
    `SocialGraph` constructed directly may hold users without a follow edge:
    they are not written, and a spreader among them raises CorpusError
    (naming the first one in engagements.csv order) before any file is
    written, since `load_corpus` would reject its engagement.
    """
    linked = np.zeros(graph.n_nodes, dtype=bool)
    linked[graph.sources()] = linked[graph.indices] = True
    users = graph.users
    rows = []
    for news in table.news_ids():
        by_rank = table.counts[news]
        for rank in sorted(by_rank):
            if not linked[rank]:
                raise CorpusError(f"spreader {users[rank]!r} of news {news!r} has no "
                                  f"follow edge, so the saved corpus would not load")
            rows.append((news, users[rank], by_rank[rank]))
    write_csv(edges_path, ("follower", "followee"),
              ((users[u], users[v]) for u, v in zip(graph.sources().tolist(),
                                                    graph.indices.tolist())))
    write_csv(engagements_path, ("news_id", "user_id", "count"), rows)
    write_csv(labels_path, ("news_id", "label"),
              [(news, table.labels[news]) for news in table.news_ids()])


def corpus_stats(graph: SocialGraph, table: EngagementTable) -> dict:
    labels = list(table.labels.values())
    return {"n_users": graph.n_nodes, "n_follow_edges": graph.n_edges,
            "n_engagement_records": sum(len(by_user) for by_user in table.counts.values()),
            "n_news": len(labels), "n_fake": labels.count(FAKE), "n_true": labels.count(TRUE)}
