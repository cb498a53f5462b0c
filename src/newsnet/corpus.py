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
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

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


@dataclass(frozen=True)
class SocialGraph:
    """Directed follow network shared by every news story (A -> B: A follows B)."""

    nodes: frozenset
    edges: frozenset
    out_neighbors: dict
    in_neighbors: dict

    @classmethod
    def from_edges(cls, edges, nodes=None) -> "SocialGraph":
        """Build a simple directed graph; nodes default to the edge endpoints."""
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop edge on {u!r}")
            edge_set.add((u, v))
        node_set = set(nodes) if nodes is not None else set()
        for u, v in edge_set:
            if nodes is None:
                node_set.add(u)
                node_set.add(v)
            elif u not in node_set or v not in node_set:
                raise ValueError(f"edge endpoint not a declared node: ({u!r}, {v!r})")
        out_nbrs = {n: set() for n in node_set}
        in_nbrs = {n: set() for n in node_set}
        for u, v in edge_set:
            out_nbrs[u].add(v)
            in_nbrs[v].add(u)
        return cls(
            nodes=frozenset(node_set),
            edges=frozenset(edge_set),
            out_neighbors={n: frozenset(s) for n, s in out_nbrs.items()},
            in_neighbors={n: frozenset(s) for n, s in in_nbrs.items()},
        )

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_nodes(self) -> list:
        return sorted(self.nodes)


@dataclass(frozen=True)
class EngagementTable:
    """Per (news, user) spreading counts plus a label for every news story."""

    counts: dict  # news_id -> {user_id: count}
    labels: dict  # news_id -> "fake" | "true"
    user_news: dict  # user_id -> {news_id: count}

    @classmethod
    def from_records(cls, records, labels) -> "EngagementTable":
        """records: mapping (news_id, user_id) -> count. Validates invariants."""
        labels = dict(labels)
        for news, label in labels.items():
            if label not in LABELS:
                raise ValueError(f"unknown label {label!r} for news {news!r}")
        counts: dict = {news: {} for news in labels}
        user_news: dict = {}
        for (news, user), count in records.items():
            if news not in labels:
                raise ValueError(f"engagement references unlabeled news {news!r}")
            count = int(count)
            if count < 1:
                raise ValueError(f"non-positive count for ({news!r}, {user!r})")
            counts[news][user] = count
            user_news.setdefault(user, {})[news] = count
        return cls(counts=counts, labels=labels, user_news=user_news)

    def news_ids(self) -> list:
        return sorted(self.labels)

    @property
    def n_records(self) -> int:
        return sum(len(by_user) for by_user in self.counts.values())

    def spreaders(self, news_id) -> dict:
        return self.counts[news_id]

    def label(self, news_id) -> str:
        return self.labels[news_id]


@dataclass(frozen=True)
class CorpusStats:
    n_users: int
    n_follow_edges: int
    n_engagement_records: int
    n_news: int
    n_fake: int
    n_true: int

    def to_dict(self) -> dict:
        return {
            "n_users": self.n_users,
            "n_follow_edges": self.n_follow_edges,
            "n_engagement_records": self.n_engagement_records,
            "n_news": self.n_news,
            "n_fake": self.n_fake,
            "n_true": self.n_true,
        }

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
    CorpusError.
    """
    edges_name = Path(edges_path).name
    engage_name = Path(engagements_path).name
    labels_name = Path(labels_path).name

    edge_set = set()
    n_self_loops = 0
    n_duplicates = 0
    for _lineno, (follower, followee) in _read_rows(edges_path, ("follower", "followee")):
        if follower == followee:
            n_self_loops += 1
            continue
        if (follower, followee) in edge_set:
            n_duplicates += 1
            continue
        edge_set.add((follower, followee))
    if n_self_loops:
        log.warning("%s: dropped %d self-loop edge(s)", edges_name, n_self_loops)
    if n_duplicates:
        log.warning("%s: dropped %d duplicate edge(s)", edges_name, n_duplicates)
    graph = SocialGraph.from_edges(edge_set)

    labels: dict = {}
    for lineno, (news, label) in _read_rows(labels_path, ("news_id", "label")):
        if label not in LABELS:
            raise CorpusError(f"label must be 'fake' or 'true', got {label!r}",
                              file=labels_name, line=lineno)
        if news in labels and labels[news] != label:
            raise CorpusError(f"conflicting label for news {news!r}",
                              file=labels_name, line=lineno)
        labels[news] = label

    records: dict = {}
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
        if user not in graph.nodes:
            raise CorpusError(f"engagement references unknown user {user!r}",
                              file=engage_name, line=lineno)
        key = (news, user)
        records[key] = records.get(key, 0) + value  # shard-merge by summation

    table = EngagementTable.from_records(records, labels)
    return graph, table


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
    from .util import write_csv

    endpoints = {user for edge in graph.edges for user in edge}
    rows = []
    for news in table.news_ids():
        for user in sorted(table.counts[news]):
            if user not in endpoints:
                raise CorpusError(f"spreader {user!r} of news {news!r} has no follow "
                                  f"edge, so the saved corpus would not load")
            rows.append((news, user, table.counts[news][user]))
    write_csv(edges_path, ("follower", "followee"), sorted(graph.edges))
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
