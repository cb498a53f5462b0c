import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from newsnet import experiments, features
from newsnet.experiments import (ABLATION_SUBSETS, SUBSET_BY_NAME, ConfigError,
                                 ExperimentConfig, feature_class_stats, run_ablation,
                                 run_early_detection, run_sampling_study,
                                 run_threshold_sweep)
from newsnet.features import FEATURE_REGISTRY, STATIC, extract_matrix, feature_index, pattern_mask
from newsnet.ml import crossval
from newsnet.ml.crossval import N_FOLDS, cross_validate, evaluate_masks
from newsnet.util import write_csv

from oracles import ALL_FEATURES


def _config(**overrides):
    base = dict(seed=11, repetitions=2, proportions=(0.5, 1.0),
                theta_grid=(0.1, 0.5, 0.9), balance_fractions=(0.3, 0.5, 0.7))
    base.update(overrides)
    config = ExperimentConfig(**base)
    config.validate()
    return config


@pytest.fixture(scope="module")
def spreader_only_ablation():
    """Ablation rows on a corpus where only the spreader-count signal is planted."""
    from newsnet.features import FeatureExtractor
    from newsnet.synth import SyntheticSpec, generate

    corpus = generate(SyntheticSpec(n_users=100, news_per_class=15, seed=17,
                                    spreader_ratio=2.0))
    extractor = FeatureExtractor.build(corpus.graph, corpus.table, seed=5)
    return run_ablation(extractor, _config())


def test_ablation_has_seventeen_canonical_rows(spreader_only_ablation):
    header, rows = spreader_only_ablation
    assert header == ("subset", "patterns", "accuracy", "f1")
    assert len(rows) == 17
    assert [r[0] for r in rows] == [name for name, _ in ABLATION_SUBSETS]
    for row in rows:
        assert 0.0 <= row[2] <= 1.0 and 0.0 <= row[3] <= 1.0


def test_spreader_signal_favors_more_spreaders(spreader_only_ablation):
    _, rows = spreader_only_ablation
    by_name = {r[0]: r for r in rows}
    assert by_name["more_spreaders"][2] > by_name["farther_distance"][2]


def test_threshold_sweep_distance_subset_constant(small_strong_extractor):
    config = _config(sweep_subsets=("farther_distance", "all_patterns"))
    header, rows = run_threshold_sweep(small_strong_extractor, config)
    fd = [(r[2], r[3]) for r in rows if r[1] == "farther_distance"]
    assert len(fd) == 3
    assert all(pair == fd[0] for pair in fd)  # exact equality across theta


def test_threshold_sweep_equals_a_per_theta_loop(monkeypatch, small_strong_extractor):
    # Every row equals evaluating every subset at its own threshold, and the
    # subset of static features only is fitted once per fold, not per threshold.
    ex = small_strong_extractor
    config = _config(sweep_subsets=("more_spreaders", "farther_distance", "all_patterns"))
    masks = {name: pattern_mask(SUBSET_BY_NAME[name]) for name in config.sweep_subsets}
    static = {name for name, mask in masks.items()
              if all(FEATURE_REGISTRY[i - 1].block == STATIC for i in mask)}
    assert static == {"farther_distance"}
    expected = []
    for theta in config.theta_grid:
        reports = evaluate_masks(ex, masks, classifier=config.classifier, theta=theta,
                                 seed=config.seed, params=config.classifier_params)
        expected += [(theta, name, reports[name].accuracy, reports[name].f1)
                     for name in config.sweep_subsets]
    widths = {len(mask): name for name, mask in masks.items()}
    assert len(widths) == len(masks)
    fitted = []
    fit = crossval.fit_classifier
    monkeypatch.setattr(crossval, "fit_classifier", lambda kind, X, y, **kw: (
        fitted.append(widths[X.shape[1]]) or fit(kind, X, y, **kw)))
    assert run_threshold_sweep(ex, config)[1] == expected
    per_theta = N_FOLDS * len(config.theta_grid)
    assert {name: fitted.count(name) for name in masks} == {
        "more_spreaders": per_theta, "farther_distance": N_FOLDS, "all_patterns": per_theta}


def test_repeated_threshold_is_evaluated_once(monkeypatch, small_strong_extractor):
    # a threshold listed twice repeats its rows without refitting a subset
    fitted = []
    fit = crossval.fit_classifier
    monkeypatch.setattr(crossval, "fit_classifier",
                        lambda *args, **kw: fitted.append(1) or fit(*args, **kw))
    _, once = run_threshold_sweep(small_strong_extractor, _config(theta_grid=(0.5,)))
    assert len(fitted) == N_FOLDS * len(experiments.DEFAULT_SWEEP_SUBSETS) == 35
    _, rows = run_threshold_sweep(small_strong_extractor, _config(theta_grid=(0.5, 0.5)))
    assert len(fitted) == 2 * 35
    assert rows == once * 2


def test_theta_boundary_degeneracy(small_strong_extractor):
    ex = small_strong_extractor
    news = sorted(ex.networks)
    at_zero = extract_matrix(ex, news, 0.0)
    # normal requires S < 0: impossible
    assert (at_zero.X[:, feature_index("n_normal_spreaders_news") - 1] == 0).all()
    at_one = extract_matrix(ex, news, 1.0)
    assert (at_one.X[:, feature_index("n_susceptible_spreaders_news") - 1] == 0).all()


def test_sampling_full_proportion_equals_full_corpus(small_strong_extractor):
    config = _config(proportions=(1.0,), repetitions=3)
    header, rows = run_sampling_study(small_strong_extractor, config, "news_count")
    full = cross_validate(small_strong_extractor, mask=ALL_FEATURES, seed=config.seed)
    assert len(rows) == 1
    row = rows[0]
    assert row[5] == "ok"
    assert row[6] == full.accuracy  # exact: same folds, same classifier seeds
    assert row[7] == full.f1


def test_sampling_class_balance_rows(small_strong_extractor):
    config = _config()
    header, rows = run_sampling_study(small_strong_extractor, config, "class_balance")
    assert all(row[0] == "class_balance" for row in rows)
    assert all(row[8] == "f1" for row in rows)
    ok_rows = [row for row in rows if row[5] == "ok"]
    assert ok_rows, "expected at least one feasible class-balance row"
    for row in ok_rows:
        assert row[2] + row[3] == rows[0][2] + rows[0][3]  # fixed total size


def test_sampling_infeasible_rows_flagged(small_strong_extractor):
    config = _config(balance_fractions=(0.1, 0.5))
    header, rows = run_sampling_study(small_strong_extractor, config, "class_balance")
    # fraction 0.1 of a 30-news budget gives 3 fake < 5: must be skipped
    statuses = {row[1]: row[5] for row in rows}
    assert statuses[0.1] == "skipped"
    assert statuses[0.5] == "ok"
    with pytest.raises(ConfigError):
        run_sampling_study(small_strong_extractor, config, "bogus_mode")


def test_early_detection_full_proportion_equals_full_corpus(small_strong_extractor):
    config = _config(proportions=(1.0,), modes=("nodes",), repetitions=2)
    header, rows = run_early_detection(small_strong_extractor, config)
    full = cross_validate(small_strong_extractor, mask=ALL_FEATURES, seed=config.seed)
    assert rows[0][0] == "nodes" and rows[0][1] == 1.0
    assert rows[0][3] == full.accuracy
    assert rows[0][4] == full.f1


def test_early_detection_runs_the_whole_networks_once(small_strong_extractor,
                                                      monkeypatch):
    config = _config(proportions=(0.5, 1.0), modes=("nodes", "edges"), repetitions=2)
    task = experiments._early_task
    runs = []

    def counted(args):
        runs.append(args[3:])
        return task(args)

    monkeypatch.setattr(experiments, "_early_task", counted)
    header, rows = run_early_detection(small_strong_extractor, config)
    assert runs == [("nodes", 0.5, 0), ("nodes", 0.5, 1), (None, 1.0, None),
                    ("edges", 0.5, 0), ("edges", 0.5, 1)]
    # every (mode, proportion, repetition) evaluated on its own, as before
    mask = pattern_mask(config.patterns)
    expected = []
    for mode in config.modes:
        for p in config.proportions:
            values = [task((small_strong_extractor, config, mask, mode, p, rep))
                      for rep in range(config.repetitions)]
            expected.append((mode, p, 2, experiments._mean([a for a, _ in values]),
                             experiments._mean([f for _, f in values])))
    assert rows == expected


def test_full_proportion_task_builds_no_flow_matrix(small_strong_extractor, monkeypatch):
    # p = 1.0 keeps every network whole, so the task runs on the extractor itself
    config = _config(proportions=(1.0,), repetitions=1)
    mask = pattern_mask(config.patterns)
    real = features.flow_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(features, "flow_matrix", counted)
    full = cross_validate(small_strong_extractor, mask=ALL_FEATURES, seed=config.seed)
    for mode in ("nodes", "edges"):
        result = experiments._early_task((small_strong_extractor, config, mask, mode, 1.0, 0))
        assert result == (full.accuracy, full.f1)
    assert calls == []
    experiments._early_task((small_strong_extractor, config, mask, "nodes", 0.5, 0))
    assert len(calls) == 1


def test_whole_population_draws_build_no_flow_matrix(small_strong_extractor, monkeypatch):
    # at news_count p = 1.0 every repetition draws every news: one evaluation,
    # on the extractor itself
    config = _config(proportions=(1.0,), repetitions=3)
    real_flows, real_cv = features.flow_matrix, experiments.cross_validate
    calls, runs = [], []
    monkeypatch.setattr(features, "flow_matrix",
                        lambda *args: calls.append(args) or real_flows(*args))
    monkeypatch.setattr(experiments, "cross_validate",
                        lambda *args, **kwargs: runs.append(args) or real_cv(*args, **kwargs))
    full = cross_validate(small_strong_extractor, mask=ALL_FEATURES, seed=config.seed)
    header, rows = run_sampling_study(small_strong_extractor, config, "news_count")
    assert calls == [] and len(runs) == 1
    labels = [net.label for net in small_strong_extractor.networks.values()]
    assert rows == [("news_count", 1.0, labels.count("fake"), labels.count("true"), 3, "ok",
                     experiments._mean([full.accuracy] * 3), experiments._mean([full.f1] * 3),
                     "accuracy")]


def test_repeated_early_detection_values_keep_their_repetitions(small_strong_extractor):
    # a value listed twice is one grid point: its rows repeat, its runs do not
    config = _config(proportions=(1.0, 0.5, 1.0), modes=("nodes", "nodes"), repetitions=2)
    _, rows = run_early_detection(small_strong_extractor, config)
    _, once = run_early_detection(small_strong_extractor,
                                  _config(proportions=(1.0, 0.5), modes=("nodes",),
                                          repetitions=2))
    assert [row[2] for row in once] == [2, 2]
    assert rows == [once[0], once[1], once[0]] * 2


def test_repeated_sampling_values_keep_their_repetitions(small_strong_extractor):
    for mode, grid in (("news_count", dict(proportions=(0.5, 0.5))),
                       ("class_balance", dict(balance_fractions=(0.5, 0.5)))):
        _, rows = run_sampling_study(small_strong_extractor, _config(**grid), mode)
        _, once = run_sampling_study(small_strong_extractor,
                                     _config(**{k: v[:1] for k, v in grid.items()}), mode)
        assert once[0][4:6] == (2, "ok")
        assert rows == once * 2


def test_early_detection_degrades_gracefully(strong_extractor):
    config = _config(proportions=(0.1,), modes=("nodes",), repetitions=1, seed=11)
    header, rows = run_early_detection(strong_extractor, config)
    assert rows[0][3] >= 0.65  # chance + 0.15 under strong planted signals


def test_early_detection_grid_shape(small_strong_extractor):
    config = _config(proportions=(0.5, 1.0), modes=("nodes", "edges"))
    header, rows = run_early_detection(small_strong_extractor, config)
    assert [(r[0], r[1]) for r in rows] == [("nodes", 0.5), ("nodes", 1.0),
                                            ("edges", 0.5), ("edges", 1.0)]


def test_parallel_jobs_match_serial(small_strong_extractor):
    serial = run_early_detection(small_strong_extractor,
                                 _config(proportions=(0.5,), modes=("nodes",)))
    parallel = run_early_detection(small_strong_extractor,
                                   _config(proportions=(0.5,), modes=("nodes",),
                                           jobs=2))
    assert serial == parallel


class _PicklingPool:
    """A stand-in for ProcessPoolExecutor that runs its tasks in this process
    and records the workers asked for and the pickled size of what the pool
    would send: the initializer arguments once, then each (function, task)."""

    shared_bytes: list = []
    task_bytes: list = []
    workers: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.workers.append(max_workers)
        self.shared_bytes.append(len(pickle.dumps(initargs)))
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        experiments._share()

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.task_bytes.extend(len(pickle.dumps((fn, task))) for task in tasks)
        return [fn(task) for task in tasks]


def test_pool_tasks_carry_only_their_point(small_strong_extractor, monkeypatch):
    # the extractor goes to each pool process once; a task is its grid point or draw
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _PicklingPool)
    monkeypatch.setattr(_PicklingPool, "shared_bytes", [])
    monkeypatch.setattr(_PicklingPool, "task_bytes", [])
    early = dict(proportions=(0.5, 1.0), modes=("nodes", "edges"), repetitions=1)
    sampling = dict(proportions=(0.5, 1.0), repetitions=2)
    runs = [(run_early_detection, early, ()),
            (run_sampling_study, sampling, ("news_count",)),
            (run_sampling_study, sampling, ("class_balance",))]
    for run, overrides, args in runs:
        serial = run(small_strong_extractor, _config(**overrides), *args)
        parallel = run(small_strong_extractor, _config(jobs=2, **overrides), *args)
        assert parallel == serial
    assert len(_PicklingPool.shared_bytes) == len(runs)
    assert min(_PicklingPool.shared_bytes) > 10_000
    assert len(_PicklingPool.task_bytes) >= 9
    assert max(_PicklingPool.task_bytes) < 1024


def test_pool_starts_at_most_one_process_per_distinct_task(small_strong_extractor,
                                                           monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _PicklingPool)
    for name in ("shared_bytes", "task_bytes", "workers"):
        monkeypatch.setattr(_PicklingPool, name, [])
    # distinct tasks: each mode at p = 0.5, and the whole networks at p = 1.0;
    # one task alone runs without a pool
    for proportions, started in (((0.5, 1.0), [3]), ((1.0,), [])):
        _PicklingPool.workers.clear()
        overrides = dict(proportions=proportions, modes=("nodes", "edges"), repetitions=1)
        serial = run_early_detection(small_strong_extractor, _config(**overrides))
        parallel = run_early_detection(small_strong_extractor, _config(jobs=8, **overrides))
        assert parallel == serial
        assert _PicklingPool.workers == started


def test_byte_reproducible_outputs(tmp_path, small_strong_extractor):
    config = _config(sweep_subsets=("farther_distance",), theta_grid=(0.2, 0.8))
    for name, runner in (("a", run_threshold_sweep), ("b", run_threshold_sweep)):
        header, rows = runner(small_strong_extractor, config)
        write_csv(tmp_path / f"{name}.csv", header, rows)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_feature_class_stats(strong_extractor):
    matrix = extract_matrix(strong_extractor, sorted(strong_extractor.networks), 0.5)
    header, rows = feature_class_stats(matrix)
    by_key = {(r[0], r[2]): r for r in rows}
    idx = feature_index("n_spreaders")
    fake_mean = by_key[(idx, "fake")][3]
    true_mean = by_key[(idx, "true")][3]
    assert fake_mean > true_mean  # planted spreader-count effect

    # a constant column yields identical statistics for both classes
    constant = matrix.X.copy()
    constant[:, idx - 1] = 4.2
    from newsnet.features import FeatureMatrix

    matrix2 = FeatureMatrix(matrix.news_ids, matrix.labels, constant)
    _, rows2 = feature_class_stats(matrix2)
    by_key2 = {(r[0], r[2]): r for r in rows2}
    assert by_key2[(idx, "fake")][3:] == by_key2[(idx, "true")][3:]


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="classifier"):
        _config(classifier="svm")
    with pytest.raises(ConfigError, match="proportions"):
        _config(proportions=(1.5,))
    with pytest.raises(ConfigError, match="sweep"):
        _config(sweep_subsets=("nonexistent",))
    # no key chooses scoring methods: the feature vector always carries both
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_dict({"susceptibility_methods": ["by_news", "by_frequency"]})
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="edges must be a path string"):
        ExperimentConfig.from_dict({"edges": 5})
    with pytest.raises(ConfigError, match="out must be a path string"):
        ExperimentConfig.from_dict({"out": ["runs"]})
    with pytest.raises(ConfigError, match="classifier_params"):
        _config(classifier_params=[("n_trees", 5)])


def test_config_json_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"seed": 4, "theta": 0.5, "proportions": [0.5, 1.0]}')
    config = ExperimentConfig.from_json_file(path)
    assert config.seed == 4
    assert config.proportions == (0.5, 1.0)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(bad)


def test_readme_config_block_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config", 1)[1]
    shown = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert list(shown) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    defaults = json.loads(json.dumps(dataclasses.asdict(ExperimentConfig())))
    paths = ("edges", "engagements", "labels")
    assert {key: value for key, value in shown.items() if key not in paths} \
        == {key: value for key, value in defaults.items() if key not in paths}
