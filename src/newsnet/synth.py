"""Synthetic corpus generator with planted, tunable class differences.

Effect sizes of 1 plant no signal: fake and true news are then drawn from
identical distributions, so detection accuracy should sit at chance. Effect
sizes above 1 plant the directional differences the detector looks for:

  spreader_ratio:    fake stories recruit proportionally more spreaders
  density_ratio:     extra follow edges inside a "susceptible pool", from
                     which fake spreaders are preferentially drawn
  engagement_ratio:  fake spreaders repeat-post proportionally more
  depth_effect:      fake spreader sets grow along follow edges (probability
                     1 - 1/depth_effect per story), stretching path lengths

The pool-concentration behavior activates whenever any effect size exceeds 1;
with all at 1 the pool is never consulted. Every user is guaranteed at least
one follow edge so generated corpora survive the CSV round trip.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .corpus import (FAKE, TRUE, EngagementTable, SocialGraph, corpus_stats,
                     save_corpus)

POOL_BIAS = 0.85


@dataclass(frozen=True)
class SyntheticSpec:
    n_users: int = 200
    edge_prob: float = 0.03
    news_per_class: int = 50
    spreader_ratio: float = 1.0
    density_ratio: float = 1.0
    engagement_ratio: float = 1.0
    depth_effect: float = 1.0
    susceptible_fraction: float = 0.4
    base_spreaders: int = 12
    base_engagement: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, kind = ((int, "an int") if f.type == "int"
                           else ((int, float), "a finite number"))
            if (isinstance(value, bool) or not isinstance(value, kinds)
                    or (isinstance(value, float) and not math.isfinite(value))):
                raise ValueError(f"{f.name} must be {kind}")
        if self.n_users < 2:
            raise ValueError("need at least 2 users")
        for name in ("edge_prob", "susceptible_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name, low in (("base_engagement", 0), ("seed", 0), ("base_spreaders", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.news_per_class < 1:
            raise ValueError("need at least 1 news story per class")
        for name in ("spreader_ratio", "density_ratio", "engagement_ratio",
                     "depth_effect"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1 (1 plants no signal)")
        max_size = math.ceil(self.base_spreaders * self.spreader_ratio * 1.4)
        if max_size > self.n_users:
            raise ValueError(f"infeasible spec: up to {max_size} spreaders "
                             f"requested but only {self.n_users} users exist")


STRONG_EFFECTS = dict(spreader_ratio=3.0, density_ratio=3.0,
                      engagement_ratio=3.0, depth_effect=2.0)


@dataclass(frozen=True)
class SyntheticCorpus:
    graph: SocialGraph
    table: EngagementTable
    truth: dict


def _draw_graph(spec: SyntheticSpec, rng, users, pool) -> SocialGraph:
    """One coin per ordered pair (u, v), u != v, in row-major order.

    The coins are drawn one row at a time: a Generator gives one double per
    draw, so the rows are the coins one draw of all n(n - 1) would give,
    without holding them all.
    """
    pool_set = set(pool)
    in_pool = np.array([u in pool_set for u in users])
    p_pool = min(1.0, spec.edge_prob * spec.density_ratio)
    n = len(users)
    src, dst = [], []
    for i in range(n):
        others = np.delete(np.arange(n), i)
        p = np.where(in_pool[i] & in_pool[others], p_pool, spec.edge_prob)
        hits = others[rng.random(n - 1) < p]
        src.append(np.full(hits.size, i))
        dst.append(hits)
    src, dst = np.concatenate(src), np.concatenate(dst)
    # keep every user reachable through edges.csv
    lonely = np.flatnonzero(np.bincount(np.concatenate([src, dst]), minlength=n) == 0)
    src, dst = np.append(src, lonely), np.append(dst, (lonely + 1) % n)
    return SocialGraph.from_edges((users[u], users[v])
                                  for u, v in zip(src.tolist(), dst.tolist()))


def _pick(rng, chosen, *orders):
    """A uniform draw by position from the first order with a user not in
    `chosen`, or None when every order is used up."""
    for order in orders:
        left = [u for u in order if u not in chosen]
        if left:
            return left[int(rng.integers(0, len(left)))]
    return None


def _draw_spreaders(spec, rng, size, label, pool, others, undirected, planted):
    if not planted:
        population = sorted(set(pool) | set(others))
        picks = rng.choice(len(population), size=size, replace=False)
        return [population[int(i)] for i in sorted(picks)]
    preferred, fallback = (sorted(pool), sorted(others))
    if label == TRUE:
        preferred, fallback = fallback, preferred
    everyone = preferred + fallback
    walk_prob = 1.0 - 1.0 / spec.depth_effect if label == FAKE else 0.0
    # a walk grows the set along follow edges from a preferred start
    walk = walk_prob > 0.0 and rng.random() < walk_prob
    chosen: dict = {}  # the picks, in order
    while len(chosen) < size:
        if walk:
            near = (sorted({v for u in chosen for v in undirected.get(u, ())})
                    if chosen else preferred)
        else:
            near = preferred if rng.random() < POOL_BIAS else fallback
        pick = _pick(rng, chosen, near, everyone)
        if pick is None:
            break
        chosen[pick] = None
    return list(chosen)


def generate(spec: SyntheticSpec) -> SyntheticCorpus:
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    users = [f"u{i:04d}" for i in range(spec.n_users)]
    n_pool = max(1, math.ceil(spec.susceptible_fraction * spec.n_users))
    pool_idx = rng.choice(spec.n_users, size=n_pool, replace=False)
    pool = sorted(users[int(i)] for i in pool_idx)
    others = sorted(set(users) - set(pool))
    planted = any(getattr(spec, name) > 1.0 for name in
                  ("spreader_ratio", "density_ratio", "engagement_ratio",
                   "depth_effect"))

    graph = _draw_graph(spec, rng, users, pool)
    undirected: dict = {}  # user -> the users it follows or is followed by
    for u, v in zip(graph.sources().tolist(), graph.indices.tolist()):
        undirected.setdefault(graph.users[u], []).append(graph.users[v])
        undirected.setdefault(graph.users[v], []).append(graph.users[u])

    records = {}
    labels = {}
    news_truth = []
    for i in range(2 * spec.news_per_class):
        news = f"n{i:04d}"
        label = FAKE if i < spec.news_per_class else TRUE
        labels[news] = label
        target = spec.base_spreaders * (spec.spreader_ratio if label == FAKE else 1.0)
        size = max(2, int(round(target * rng.uniform(0.6, 1.4))))
        size = min(size, spec.n_users)
        spreaders = _draw_spreaders(spec, rng, size, label, pool, others,
                                    undirected, planted)
        lam = spec.base_engagement * (spec.engagement_ratio if label == FAKE else 1.0)
        total = 0
        for u in spreaders:
            count = 1 + int(rng.poisson(lam))
            records[(news, u)] = count
            total += count
        news_truth.append({"news_id": news, "label": label,
                           "n_spreaders": len(spreaders), "total_engagements": total})

    table = EngagementTable.from_records(graph, records, labels)
    truth = {**corpus_stats(graph, table), "spec": asdict(spec), "planted": planted,
             "susceptible_pool": pool, "news": news_truth}
    return SyntheticCorpus(graph=graph, table=table, truth=truth)


def write_corpus(corpus: SyntheticCorpus, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": out / "edges.csv",
        "engagements": out / "engagements.csv",
        "labels": out / "labels.csv",
        "truth": out / "truth.json",
    }
    save_corpus(corpus.graph, corpus.table, paths["edges"], paths["engagements"],
                paths["labels"])
    with open(paths["truth"], "w", encoding="utf-8") as f:
        json.dump(corpus.truth, f, indent=2, sort_keys=True)
    return {k: str(v) for k, v in paths.items()}
