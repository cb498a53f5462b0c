"""The benchmark's workloads: corpus spec, study call, output invariants, counts.

Every corpus is a fixed one: `newsnet.synth` with STRONG_EFFECTS and seed
CORPUS_SEED, written to three CSVs that are all the program sees. The
benchmark's --seed is the study's master seed (`ExperimentConfig.seed`, the
CLI's --seed): it drives fold assignment, forest, Louvain and subsampling
seeds. See README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from newsnet import experiments, features
from newsnet.features import FEATURE_NAMES, N_FEATURES
from newsnet.ml import crossval, relief
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate, write_corpus

CORPUS_SEED = 7  # the ROADMAP demo corpus is `newsnet synth --strong --seed 7`
DEFAULT_SEED = 7
CSV_NAMES = ("edges.csv", "engagements.csv", "labels.csv")
N_FOLDS = crossval.N_FOLDS


def rank_features(extractor, config):
    """The `rank-features` path: full-corpus matrix, then Relief."""
    matrix = features.extract_matrix(extractor, extractor.table.news_ids(),
                                     config.theta)
    ranking = relief.relief_rank(matrix.X, crossval.encode_labels(matrix.labels),
                                 seed=config.seed)
    header = ("rank", "feature_index", "feature_name", "weight")
    rows = [(rank + 1, f + 1, FEATURE_NAMES[f], weight)
            for rank, (f, weight) in enumerate(ranking)]
    return header, rows, matrix


def threshold_sweep(extractor, config):
    header, rows = experiments.run_threshold_sweep(extractor, config)
    return header, rows, None


def early_detection(extractor, config):
    header, rows = experiments.run_early_detection(extractor, config)
    return header, rows, None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    config: dict
    study: Callable  # (extractor, config) -> (header, rows, matrix or None)

    def experiment_config(self, seed: int = DEFAULT_SEED) -> experiments.ExperimentConfig:
        return experiments.ExperimentConfig.from_dict(dict(self.config, seed=seed))

    @property
    def n_news(self) -> int:
        return 2 * self.spec["news_per_class"]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_demo",
        why="demo corpus, threshold sweep: static block built once and reused by "
            "1,500 vectors, so WL similarity and forest fits dominate run_s",
        spec=dict(n_users=200, edge_prob=0.03, news_per_class=50),
        config=dict(theta_grid=[0.3, 0.5, 0.7], jobs=1),
        study=threshold_sweep,
    ),
    Workload(
        name="early_bignets",
        why="early detection on large networks: every task rebuilds flows and "
            "the static block, so distances, triangles and local Louvain dominate",
        spec=dict(n_users=600, edge_prob=0.02, news_per_class=15,
                  base_spreaders=50),
        config=dict(modes=["nodes", "edges"], proportions=[0.5, 1.0],
                    repetitions=1, jobs=1),
        study=early_detection,
    ),
    Workload(
        name="build_graph",
        why="large follow graph, rank-features: exact centralities in "
            "FeatureExtractor.build are nearly all of the time; CV, WL and forest idle",
        spec=dict(n_users=1200, edge_prob=0.01, news_per_class=10),
        config=dict(jobs=1),
        study=rank_features,
    ),
)}


def write_inputs(workload: Workload, out_dir: Path) -> dict:
    """Generate the workload corpus; return the sha256 of each CSV."""
    spec = SyntheticSpec(**workload.spec, **STRONG_EFFECTS, seed=CORPUS_SEED)
    write_corpus(generate(spec), out_dir)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in CSV_NAMES}


def fold0_matrix(extractor, config):
    """The matrix CV fold 0 extracts at θ = config.theta on the whole networks."""
    labels = {n: extractor.table.labels[n] for n in extractor.networks}
    split = crossval.stratified_folds(labels, N_FOLDS, config.seed)
    return features.extract_matrix(extractor, split.train_news(0), config.theta)


def expected_columns(corpus_dir: Path) -> dict:
    """Closed-form feature columns computed from the CSVs alone.

    Returns {feature name: {news_id: value}} for the spreader count, total
    engagements and the number of follow edges among a story's spreaders.
    """
    follows = set()
    with open(corpus_dir / "edges.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if row["follower"] != row["followee"]:
                follows.add((row["follower"], row["followee"]))
    spreaders: dict = {}
    with open(corpus_dir / "engagements.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            users = spreaders.setdefault(row["news_id"], {})
            users[row["user_id"]] = users.get(row["user_id"], 0) + int(row["count"])
    columns = {"n_spreaders": {}, "total_engagements": {}, "n_edges": {}}
    for news, users in spreaders.items():
        columns["n_spreaders"][news] = float(len(users))
        columns["total_engagements"][news] = float(sum(users.values()))
        columns["n_edges"][news] = float(sum(1 for u in users for v in users
                                             if (u, v) in follows))
    return columns


def check_rows(workload: Workload, rows) -> list:
    """Invariants the study output must satisfy on any seed."""
    problems = []
    c = workload.experiment_config()
    if workload.name == "build_graph":
        if sorted(r[1] for r in rows) != list(range(1, N_FEATURES + 1)):
            problems.append("ranking is not a permutation of the 142 features")
        if any(not math.isfinite(r[3]) for r in rows):
            problems.append("non-finite Relief weight")
        return problems
    scores = [v for r in rows for v in r[-2:]]
    if any(not 0.0 <= v <= 1.0 for v in scores):
        problems.append("accuracy or f1 outside [0, 1]")
    if workload.name == "sweep_demo":
        if len(rows) != len(c.theta_grid) * len(c.sweep_subsets):
            problems.append(f"expected {len(c.theta_grid) * len(c.sweep_subsets)} "
                            f"rows, got {len(rows)}")
        # farther_distance uses no susceptibility feature: constant across theta
        constant = {tuple(r[2:]) for r in rows if r[1] == "farther_distance"}
        if len(constant) != 1:
            problems.append("farther_distance changed across thresholds")
    else:
        if len(rows) != len(c.modes) * len(c.proportions):
            problems.append(f"expected {len(c.modes) * len(c.proportions)} rows, "
                            f"got {len(rows)}")
        # subsampling nodes or edges with p = 1 keeps every network whole
        full = {tuple(r[3:]) for r in rows if r[1] == 1.0}
        if len(full) != 1:
            problems.append("nodes and edges subsampling at p=1.0 disagree")
    return problems


def expected_counts(workload: Workload) -> dict:
    """Call counts the traced run must record, as closed forms of the config.

    n news split into 5 stratified folds; every extract_matrix call extracts
    all n vectors and compares each with the training networks under two WL
    labelling schemes. The static block (3 distance stats per news) is cached
    per extractor, and early detection builds one extractor per grid point.
    """
    c = workload.experiment_config()
    n = workload.n_news
    if workload.name == "build_graph":  # one descriptive matrix, all news train
        extractors, matrices, n_train, fits = 1, 1, n, 0
    else:
        n_train = n * (N_FOLDS - 1) // N_FOLDS
        if workload.name == "sweep_demo":
            extractors = 1
            matrices = len(c.theta_grid) * N_FOLDS
            fits = matrices * len(c.sweep_subsets)
        else:
            extractors = len(c.modes) * len(c.proportions) * c.repetitions
            matrices = extractors * N_FOLDS
            fits = matrices
    return {
        "features.extract_matrix": matrices,
        "features.extract": matrices * n,
        "ml.fit": fits,
        "triads.census": 2 * matrices * n,
        "distances.stats": 3 * n * extractors,
        "wl.kernel": matrices * n * 2 * n_train,
    }
