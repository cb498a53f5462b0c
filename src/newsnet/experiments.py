"""Batch experiment drivers: ablations, sweeps, sampling and early detection.

Every run is reproducible from (config, master seed): repetition-derived
seeds feed only the samplers, while fold assignment and classifier seeds
derive from the master seed alone. Sampling a proportion of 1.0 therefore
reproduces the full-corpus result exactly, and threshold sweeps of feature
subsets that never touch susceptibility are exactly constant.

Outputs are plotting-ready CSV rows; no plotting happens here.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .corpus import FAKE, TRUE
from .features import (FARTHER_DISTANCE, DENSER_NETWORKS, FEATURE_REGISTRY,
                       MORE_SPREADERS, PATTERNS, SIMILARITY, STATIC, STRONGER_ENGAGEMENT,
                       FeatureExtractor, FeatureMatrix, pattern_mask)
from .diffusion import SUBSAMPLE_MODES, subsample
from .ml.crossval import check_params, cross_validate, evaluate_masks
from .util import derive_seed, left_sum


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_DEFAULT_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))
_DEFAULT_BALANCE = tuple(round(0.1 * k, 1) for k in range(1, 10))

ABLATION_SUBSETS = (
    ("more_spreaders", (MORE_SPREADERS,)),
    ("farther_distance", (FARTHER_DISTANCE,)),
    ("stronger_engagement", (STRONGER_ENGAGEMENT,)),
    ("denser_networks", (DENSER_NETWORKS,)),
    ("more_spreaders+farther_distance", (MORE_SPREADERS, FARTHER_DISTANCE)),
    ("more_spreaders+stronger_engagement", (MORE_SPREADERS, STRONGER_ENGAGEMENT)),
    ("more_spreaders+denser_networks", (MORE_SPREADERS, DENSER_NETWORKS)),
    ("farther_distance+stronger_engagement", (FARTHER_DISTANCE, STRONGER_ENGAGEMENT)),
    ("farther_distance+denser_networks", (FARTHER_DISTANCE, DENSER_NETWORKS)),
    ("stronger_engagement+denser_networks", (STRONGER_ENGAGEMENT, DENSER_NETWORKS)),
    ("all_minus_denser_networks",
     (MORE_SPREADERS, FARTHER_DISTANCE, STRONGER_ENGAGEMENT)),
    ("all_minus_stronger_engagement",
     (MORE_SPREADERS, FARTHER_DISTANCE, DENSER_NETWORKS)),
    ("all_minus_farther_distance",
     (MORE_SPREADERS, STRONGER_ENGAGEMENT, DENSER_NETWORKS)),
    ("all_minus_more_spreaders",
     (FARTHER_DISTANCE, STRONGER_ENGAGEMENT, DENSER_NETWORKS)),
    ("all_patterns",
     (MORE_SPREADERS, FARTHER_DISTANCE, STRONGER_ENGAGEMENT, DENSER_NETWORKS)),
    ("similarity_only", (SIMILARITY,)),
    ("all_plus_similarity",
     (MORE_SPREADERS, FARTHER_DISTANCE, STRONGER_ENGAGEMENT, DENSER_NETWORKS,
      SIMILARITY)),
)
SUBSET_BY_NAME = dict(ABLATION_SUBSETS)

SAMPLING_MODES = ("news_count", "class_balance")

DEFAULT_SWEEP_SUBSETS = (
    "more_spreaders", "farther_distance", "stronger_engagement",
    "denser_networks", "similarity_only", "all_patterns", "all_plus_similarity",
)


@dataclass
class ExperimentConfig:
    edges: str | None = None
    engagements: str | None = None
    labels: str | None = None
    classifier: str = "random_forest"
    classifier_params: dict = field(default_factory=dict)
    theta: float = 0.5
    theta_grid: tuple = tuple(round(0.1 * k, 1) for k in range(11))
    wl_iterations: int = 3
    patterns: tuple = PATTERNS
    sweep_subsets: tuple = DEFAULT_SWEEP_SUBSETS
    proportions: tuple = _DEFAULT_GRID
    balance_fractions: tuple = _DEFAULT_BALANCE
    balance_total: int | None = None
    modes: tuple = ("nodes", "edges")
    repetitions: int = 5
    seed: int = 0
    out: str = "runs"
    jobs: int = 1
    synthetic: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name in ("classifier_params", "synthetic"):
            if not isinstance(getattr(self, name), dict):
                raise ConfigError(f"{name} must be a JSON object")
        try:
            check_params(self.classifier, self.classifier_params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name in ("edges", "engagements", "labels", "out"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name != "out")):
                raise ConfigError(f"{name} must be a path string")
        if not self.out:
            raise ConfigError("out must not be empty")
        for name in ("seed", "jobs", "repetitions", "wl_iterations"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an int")
        for name, low in (("repetitions", 1), ("wl_iterations", 0), ("jobs", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.balance_total is not None and not (_is_int(self.balance_total)
                                                   and self.balance_total >= 1):
            raise ConfigError("balance_total must be null or an int >= 1")
        for name in ("theta_grid", "proportions", "balance_fractions", "patterns",
                     "sweep_subsets", "modes"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigError(f"{name} must be a nonempty list")
        for name in ("theta_grid", "proportions", "balance_fractions"):
            if any(not _is_real(v) or not 0.0 <= v <= 1.0 for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be numbers in [0, 1]")
        if self.balance_total is None and max(self.balance_fractions) == 0.0:
            raise ConfigError("balance_fractions need a value above 0 when "
                              "balance_total is null (the total is derived from "
                              "the largest fraction)")
        if not _is_real(self.theta) or not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must be a number in [0, 1]")
        for name, known in (("patterns", PATTERNS),
                            ("sweep_subsets", tuple(SUBSET_BY_NAME)),
                            ("modes", SUBSAMPLE_MODES)):
            unknown = [v for v in getattr(self, name) if v not in known]
            if unknown:
                raise ConfigError(f"unknown {name} value(s): {unknown}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        config = cls(**{key: tuple(value) if isinstance(value, list) else value
                        for key, value in data.items() if value is not None})
        config.validate()
        return config

    @classmethod
    def from_json_file(cls, path, overrides=None) -> "ExperimentConfig":
        """The JSON object in `path`, `overrides` replacing its values, validated once."""
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict({**data, **(overrides or {})})


def _mean(values) -> float:
    return left_sum(values) / len(values) if values else 0.0


def run_ablation(extractor: FeatureExtractor, config: ExperimentConfig):
    """Evaluate the 17 canonical pattern subsets; one extraction per fold."""
    masks = {name: pattern_mask(patterns) for name, patterns in ABLATION_SUBSETS}
    reports = evaluate_masks(extractor, masks, classifier=config.classifier,
                             theta=config.theta, seed=config.seed,
                             params=config.classifier_params)
    header = ("subset", "patterns", "accuracy", "f1")
    rows = [(name, "+".join(patterns), reports[name].accuracy, reports[name].f1)
            for name, patterns in ABLATION_SUBSETS]
    return header, rows


def run_threshold_sweep(extractor: FeatureExtractor, config: ExperimentConfig):
    """Re-extract per distinct threshold and evaluate every subset.

    A subset of static features only is θ-free: its fits see the same
    columns, folds and seeds at every threshold, so it is evaluated at the
    first threshold alone and its accuracy and F1 repeat at the others. A
    repeated threshold repeats its rows without new fits.
    """
    masks = {name: pattern_mask(SUBSET_BY_NAME[name]) for name in config.sweep_subsets}
    theta_free = {name for name, mask in masks.items()
                  if all(FEATURE_REGISTRY[i - 1].block == STATIC for i in mask)}
    free: dict = {}  # θ-free subset -> its report at the first threshold
    reports: dict = {}  # distinct threshold -> {subset: report}
    for theta in dict.fromkeys(config.theta_grid):
        todo = {name: mask for name, mask in masks.items() if name not in free}
        reports[theta] = dict(free)
        if todo:
            reports[theta].update(evaluate_masks(extractor, todo, classifier=config.classifier,
                                                 theta=theta, seed=config.seed,
                                                 params=config.classifier_params))
        free = {name: reports[theta][name] for name in theta_free}
    header = ("theta", "subset", "accuracy", "f1")
    return header, [(theta, name, reports[theta][name].accuracy, reports[theta][name].f1)
                    for theta in config.theta_grid for name in config.sweep_subsets]


_SHARED: tuple = ()  # in a pool process: what every task of its pool shares


def _share(*shared):
    """Pool initializer: keep what every task shares, once per process."""
    global _SHARED
    _SHARED = shared


def _with_shared(worker, task):
    return worker(_SHARED + task)


def _by_point(worker, shared, runs, jobs) -> dict:
    """Each point's (runs, mean accuracy, mean F1), from (point, task) pairs
    in order.

    A distinct task is evaluated once, as worker(shared + task), and its
    result counts for every pair that lists it. A pool of min(jobs, tasks)
    processes runs them when that is above 1: each process receives `shared`
    (extractor, config, mask) once, through the pool's initializer, and a
    task carries only its own part.
    """
    tasks = list(dict.fromkeys(task for _, task in runs))
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [worker(shared + task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                                 initargs=shared) as pool:
            results = list(pool.map(partial(_with_shared, worker), tasks))
    results = dict(zip(tasks, results))
    grouped: dict = {}
    for point, task in runs:
        grouped.setdefault(point, []).append(results[task])
    return {point: (len(values), _mean([a for a, _ in values]), _mean([f for _, f in values]))
            for point, values in grouped.items()}


def _eval_task(args):
    extractor, config, mask = args
    report = cross_validate(extractor, classifier=config.classifier, mask=mask,
                            theta=config.theta, seed=config.seed,
                            params=config.classifier_params)
    return report.accuracy, report.f1


def _sampling_task(args):
    extractor, config, mask, fake_ids, true_ids = args
    if len(fake_ids) + len(true_ids) < len(extractor.networks):
        extractor = extractor.with_networks({n: extractor.networks[n]
                                             for n in fake_ids + true_ids})
    return _eval_task((extractor, config, mask))


def _early_task(args):
    extractor, config, mask, mode, proportion, rep = args
    if proportion < 1.0:  # either mode keeps every network whole at p = 1.0
        extractor = extractor.with_networks({
            news: subsample(net, mode, proportion,
                            derive_seed(config.seed, "early", mode, repr(proportion),
                                        rep, news))
            for news, net in sorted(extractor.networks.items())
        })
    return _eval_task((extractor, config, mask))


def run_sampling_study(extractor: FeatureExtractor, config: ExperimentConfig,
                       mode: str):
    """Scale the corpus (news_count) or skew the class ratio (class_balance).

    Balanced runs report accuracy as headline metric, unbalanced runs F1;
    rows whose sample cannot be stratified are flagged and skipped. Each
    distinct draw is evaluated once, and a draw of the whole population on
    `extractor` itself. A value listed twice is drawn once and gets two rows.
    """
    if mode not in SAMPLING_MODES:
        raise ConfigError(f"unknown sampling mode {mode!r}")
    mask = pattern_mask(config.patterns)
    table = extractor.node_table
    fake_pop, true_pop = ([n for n, lab in zip(table.order, table.labels) if lab == label]
                          for label in (FAKE, TRUE))
    if mode == "news_count":
        grid = [(p, math.ceil(p * len(fake_pop)), math.ceil(p * len(true_pop)))
                for p in config.proportions]
        metric = "accuracy"
    else:
        total = config.balance_total
        if total is None:
            total = int(min(len(fake_pop), len(true_pop)) /
                        max(config.balance_fractions))
        grid = [(q, round(q * total), total - round(q * total))
                for q in config.balance_fractions]
        metric = "f1"

    header = ("mode", "proportion", "n_fake", "n_true", "repetitions", "status",
              "accuracy", "f1", "metric")
    points = [(p, n_fake, n_true,
               (5 <= n_fake <= len(fake_pop)) and (5 <= n_true <= len(true_pop)))
              for p, n_fake, n_true in grid]
    runs = []
    for p, n_fake, n_true, feasible in dict.fromkeys(points):
        if not feasible:
            continue
        for rep in range(config.repetitions):
            rng = random.Random(derive_seed(config.seed, "sample", mode, repr(p), rep))
            runs.append((p, (tuple(sorted(rng.sample(fake_pop, n_fake))),
                             tuple(sorted(rng.sample(true_pop, n_true))))))
    by_point = _by_point(_sampling_task, (extractor, config, mask), runs, config.jobs)
    rows = []
    for p, n_fake, n_true, feasible in points:
        if not feasible:
            rows.append((mode, p, n_fake, n_true, 0, "skipped", "", "", metric))
            continue
        n_runs, accuracy, f1 = by_point[p]
        rows.append((mode, p, n_fake, n_true, n_runs, "ok", accuracy, f1, metric))
    return header, rows


def run_early_detection(extractor: FeatureExtractor, config: ExperimentConfig):
    """Subsample every network per (mode, proportion), re-extract, evaluate.

    Either mode keeps every network whole at p = 1.0, whatever the seed, so
    that point is one task, evaluated once on `extractor` itself and counted
    for every mode and repetition. A value listed twice is evaluated once and
    gets two rows.
    """
    mask = pattern_mask(config.patterns)
    header = ("mode", "proportion", "repetitions", "accuracy", "f1")
    runs = [((mode, p), (mode, p, rep) if p < 1.0 else (None, p, None))
            for mode in dict.fromkeys(config.modes) for p in dict.fromkeys(config.proportions)
            for rep in range(config.repetitions)]
    by_point = _by_point(_early_task, (extractor, config, mask), runs, config.jobs)
    return header, [(mode, p) + by_point[(mode, p)]
                    for mode in config.modes for p in config.proportions]


def feature_class_stats(matrix: FeatureMatrix):
    """Per-feature location statistics split by news label (plotting-ready)."""
    if len(matrix.news_ids) == 0:
        raise ValueError("feature matrix is empty")
    header = ("feature_index", "feature_name", "label", "mean", "median", "q1", "q3")
    labels = np.array(matrix.labels)
    rows = []
    for spec in FEATURE_REGISTRY:
        col = matrix.X[:, spec.index - 1]
        for label in (FAKE, TRUE):
            values = col[labels == label]
            if values.size == 0:
                continue
            rows.append((spec.index, spec.name, label,
                         float(np.mean(values)), float(np.median(values)),
                         float(np.percentile(values, 25)),
                         float(np.percentile(values, 75))))
    return header, rows
