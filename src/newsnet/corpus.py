"""Corpus ingestion: the social follow graph, engagement records and news labels.

Input files are CSV with a header row, UTF-8, comma separated:

  edges.csv:        follower,followee     one directed follow edge per row
  engagements.csv:  news_id,user_id,count spreading counts; duplicate rows for
                                          the same (news, user) are summed
  labels.csv:       news_id,label         label is "fake" or "true"

User and news ids are opaque strings. Validation is total: any malformed
input raises CorpusError (with file and line number) instead of producing a
partially constructed corpus. Duplicate follow edges and self-loops are
dropped, counted, and logged rather than raised.

The follow graph is held as integers. While `load_corpus` streams
edges.csv it numbers each user id on first sight and appends the two
numbers of every edge to int arrays; no set of id pairs is ever built. At
the end the users are renumbered by sorted id (a user's rank), and the
edges, deduplicated by one sort of their keys, become an out-CSR
of ranks (`SocialGraph`). Rank order is sorted-id order, so every loop over
sorted ids or sorted id pairs sees the same order over ranks, and the
features computed from ranks are the ones computed from ids. User ids stay
strings at the I/O boundary only: in `SocialGraph.users`, the engagement
table's per-news counts and the files `save_corpus` writes. Past
`load_corpus` every per-user value (networks, centralities, communities,
susceptibility) is an array over the ranks, and `SocialGraph.ranks` maps
ids to ranks where a story's spreaders enter its network.
"""

from __future__ import annotations

import csv
import json
import logging
from array import array
from bisect import bisect_left
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .util import distinct, find, ranges, write_csv

log = logging.getLogger(__name__)

FAKE = "fake"
TRUE = "true"
LABELS = (FAKE, TRUE)


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
    def from_edges(cls, edges, nodes=None) -> "SocialGraph":
        """Build a simple directed graph from (follower, followee) id pairs.

        Nodes default to the edge endpoints; duplicate pairs collapse.
        """
        ids: dict = {}
        for v in nodes if nodes is not None else ():
            ids.setdefault(v, len(ids))
        src, dst = array("q"), array("q")
        stray = None
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop edge on {u!r}")
            if nodes is not None and (u not in ids or v not in ids):
                stray = stray or (u, v)
                continue
            src.append(ids.setdefault(u, len(ids)))
            dst.append(ids.setdefault(v, len(ids)))
        if stray is not None:
            raise ValueError(f"edge endpoint not a declared node: {stray!r}")
        return _intern(ids, src, dst)[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialGraph):
            return NotImplemented
        return (self.users == other.users and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    @property
    def n_nodes(self) -> int:
        return len(self.users)

    @property
    def n_edges(self) -> int:
        return self.indices.size

    def sources(self) -> np.ndarray:
        """The follower rank of every edge, in CSR order."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def ranks(self, users) -> np.ndarray:
        """The rank of each of `users`, -1 for one that is not a node of the graph."""
        out = []
        for user in users:
            i = bisect_left(self.users, user)
            out.append(i if i < len(self.users) and self.users[i] == user else -1)
        return np.array(out, dtype=np.int64)

    def follows(self, followers, followees) -> np.ndarray:
        """For each (followers[i], followees[i]) pair of ranks, whether it is an edge.

        Binary search over the edge keys `follower * n + followee`, which
        CSR order lists ascending.
        """
        n = self.n_nodes
        return find(self.sources() * n + self.indices,
                    np.asarray(followers, dtype=np.int64) * n + followees)[1]


def _intern(ids: dict, src, dst) -> tuple:
    """The graph of the edges (src[i], dst[i]), and how many duplicates it dropped.

    `ids` maps each user id to its number in `src`/`dst` (first-seen order);
    the graph renumbers users by sorted id.
    """
    first_seen = list(ids)
    order = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    keys = rank[np.frombuffer(src, dtype=np.int64)] * n
    keys += rank[np.frombuffer(dst, dtype=np.int64)]
    unique = distinct(keys)
    followers, followees = np.divmod(unique, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(followers, minlength=n), out=indptr[1:])
    graph = SocialGraph(users=tuple(first_seen[k] for k in order), indptr=indptr,
                        indices=followees)
    return graph, keys.size - unique.size


def csr_rows(frontier, csr) -> tuple:
    """The frontier's CSR rows concatenated in frontier order: (row, entry) pairs."""
    indptr, indices = csr
    starts = indptr[frontier]
    lens = indptr[frontier + 1] - starts
    return np.repeat(frontier, lens), indices[ranges(starts, lens)]


@dataclass(frozen=True)
class EngagementTable:
    """Per (news, user) spreading counts plus a label for every news story."""

    counts: dict  # news_id -> {user_id: count}
    labels: dict  # news_id -> "fake" | "true"

    @classmethod
    def from_records(cls, records, labels) -> "EngagementTable":
        """records: mapping (news_id, user_id) -> count. Validates invariants."""
        labels = dict(labels)
        for news, label in labels.items():
            if label not in LABELS:
                raise ValueError(f"unknown label {label!r} for news {news!r}")
        counts: dict = {news: {} for news in labels}
        for (news, user), count in records.items():
            if news not in labels:
                raise ValueError(f"engagement references unlabeled news {news!r}")
            count = int(count)
            if count < 1:
                raise ValueError(f"non-positive count for ({news!r}, {user!r})")
            counts[news][user] = count
        return cls(counts=counts, labels=labels)

    def news_ids(self) -> list:
        return sorted(self.labels)

    @property
    def n_records(self) -> int:
        return sum(len(by_user) for by_user in self.counts.values())


@dataclass(frozen=True)
class CorpusStats:
    n_users: int
    n_follow_edges: int
    n_engagement_records: int
    n_news: int
    n_fake: int
    n_true: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _read_rows(path, expected_header):
    path = Path(path)
    if not path.is_file():
        raise CorpusError("file not found", file=str(path))
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


def load_corpus(edges_path, engagements_path, labels_path):
    """Load and validate the three corpus files.

    Returns (SocialGraph, EngagementTable). Self-loops and duplicate follow
    edges are dropped (counted in the log); all other violations raise
    CorpusError. Engagement rows are checked once and summed into the table
    as they are read.
    """
    edges_name = Path(edges_path).name
    engage_name = Path(engagements_path).name
    labels_name = Path(labels_path).name

    ids: dict = {}  # user id -> first-seen number
    src, dst = array("q"), array("q")
    n_self_loops = 0
    for _lineno, (follower, followee) in _read_rows(edges_path, ("follower", "followee")):
        if follower == followee:
            n_self_loops += 1
            continue
        src.append(ids.setdefault(follower, len(ids)))
        dst.append(ids.setdefault(followee, len(ids)))
    graph, n_duplicates = _intern(ids, src, dst)
    if n_self_loops:
        log.warning("%s: dropped %d self-loop edge(s)", edges_name, n_self_loops)
    if n_duplicates:
        log.warning("%s: dropped %d duplicate edge(s)", edges_name, n_duplicates)

    labels: dict = {}
    for lineno, (news, label) in _read_rows(labels_path, ("news_id", "label")):
        if label not in LABELS:
            raise CorpusError(f"label must be 'fake' or 'true', got {label!r}",
                              file=labels_name, line=lineno)
        if news in labels and labels[news] != label:
            raise CorpusError(f"conflicting label for news {news!r}",
                              file=labels_name, line=lineno)
        labels[news] = label

    counts: dict = {news: {} for news in labels}
    for lineno, (news, user, count) in _read_rows(engagements_path,
                                                  ("news_id", "user_id", "count")):
        try:
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
        if user not in ids:
            raise CorpusError(f"engagement references unknown user {user!r}",
                              file=engage_name, line=lineno)
        by_user = counts[news]
        by_user[user] = by_user.get(user, 0) + value  # shard-merge by summation
    return graph, EngagementTable(counts=counts, labels=labels)


def save_corpus(graph: SocialGraph, table: EngagementTable,
                edges_path, engagements_path, labels_path) -> None:
    """Write a corpus back to the three-file CSV format (sorted, canonical).

    edges.csv lists follow edges only, so users without any follow edge are
    not written, and `load_corpus` gives back the edge endpoints as the user
    set. Users without an engagement are simply dropped; a spreader without a
    follow edge raises CorpusError (naming the first one in engagements.csv
    order) before any file is written, since `load_corpus` would reject its
    engagement.
    """
    linked = np.zeros(graph.n_nodes, dtype=bool)
    linked[graph.sources()] = linked[graph.indices] = True
    rows = []
    for news in table.news_ids():
        users = sorted(table.counts[news])
        for user, rank in zip(users, graph.ranks(users).tolist()):
            if rank < 0 or not linked[rank]:
                raise CorpusError(f"spreader {user!r} of news {news!r} has no follow "
                                  f"edge, so the saved corpus would not load")
            rows.append((news, user, table.counts[news][user]))
    users = graph.users
    write_csv(edges_path, ("follower", "followee"),
              ((users[u], users[v]) for u, v in zip(graph.sources().tolist(),
                                                    graph.indices.tolist())))
    write_csv(engagements_path, ("news_id", "user_id", "count"), rows)
    write_csv(labels_path, ("news_id", "label"),
              [(news, table.labels[news]) for news in table.news_ids()])


def corpus_stats(graph: SocialGraph, table: EngagementTable) -> CorpusStats:
    n_fake = sum(1 for lab in table.labels.values() if lab == FAKE)
    n_true = sum(1 for lab in table.labels.values() if lab == TRUE)
    return CorpusStats(
        n_users=graph.n_nodes,
        n_follow_edges=graph.n_edges,
        n_engagement_records=table.n_records,
        n_news=len(table.labels),
        n_fake=n_fake,
        n_true=n_true,
    )
