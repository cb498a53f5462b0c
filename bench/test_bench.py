"""Tests of the benchmark itself.

    python3 -m pytest -q bench

The count tests run sweep_demo (twice, on two seeds) and early_bignets
traced in-process, about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Counts at the seed code for the default workload configs; they depend on
# the config only, never on the corpus or the timing.
COUNTS = {
    "sweep_demo": {"features.extract": 1500, "ml.fit": 105, "triads.census": 3000,
                   "distances.stats": 300, "wl.kernel": 240000},
    "early_bignets": {"distances.stats": 360, "wl.kernel": 28800},
}


def test_self_times_add_up_to_the_root_spans():
    spans = [[0, "experiments.driver", 0.0, 10.0, None, "r"],
             [1, "features.extract", 1.0, 4.0, 0, "r"],
             [2, "triads.census", 2.0, 3.0, 1, "r"],
             [3, "ml.fit", 5.0, 9.0, 0, "r"],
             [4, "corpus.load", 10.0, 10.5, None, "r"]]
    summary = tracer.summarize(spans)
    assert summary["experiments.driver"] == {"s": 10.0, "calls": 1, "self_s": 3.0}
    assert summary["features.extract"]["self_s"] == 2.0
    assert summary["ml.relief"] == {"s": 0.0, "calls": 0, "self_s": 0.0}
    modules = tracer.module_self_times(summary)
    assert modules["triads"] == 1.0 and modules["ml"] == 4.0
    assert sum(modules.values()) == pytest.approx(10.5)


def test_install_patches_every_target_and_uninstall_restores_them():
    from newsnet import features
    from newsnet.ml.forest import RandomForestClassifier

    original = features.centralities
    original_predict = vars(RandomForestClassifier)["predict"]
    t = tracer.Tracer("t").install()
    try:
        assert t.missing == []
        assert features.centralities is not original
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        clf = RandomForestClassifier(n_trees=3, seed=0).fit(X, np.array([0, 0, 1, 1]))
        clf.predict(X)
        # the forest's per-tree predict calls fold into one span
        assert [s.name for s in t.spans] == ["ml.predict"]
    finally:
        t.uninstall()
    assert features.centralities is original
    assert vars(RandomForestClassifier)["predict"] is original_predict


@pytest.mark.parametrize("name,seed", [("sweep_demo", 7), ("sweep_demo", 8),
                                       ("early_bignets", 7)])
def test_traced_counts_match_their_closed_forms(name, seed, tmp_path):
    workload = workloads.WORKLOADS[name]
    expected = workloads.expected_counts(workload)
    for key, value in COUNTS[name].items():
        assert expected[key] == value
    workloads.write_inputs(workload, tmp_path)
    out = child.measure(workload, tmp_path, seed, trace=True, verify=False)
    summary = tracer.summarize(out["spans"])
    observed = {name: entry["calls"] for name, entry in summary.items()}
    observed.update(out["counters"])
    assert {key: observed[key] for key in expected} == expected
    traced_total = out["setup_s"][0] + out["run_s"]
    self_total = sum(entry["self_s"] for entry in summary.values())
    assert self_total == pytest.approx(traced_total, rel=1e-3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_corpus_matches_its_pin(name, tmp_path):
    digests = workloads.write_inputs(workloads.WORKLOADS[name], tmp_path)
    assert digests == run.load_reference(name)["corpus_sha256"]


def test_matrix_check_catches_a_wrong_feature(tmp_path):
    reference = run.load_reference("build_graph")
    workloads.write_inputs(workloads.WORKLOADS["build_graph"], tmp_path)
    columns = workloads.expected_columns(tmp_path)
    matrix = {"news_ids": reference["matrix_news_ids"], "X": reference["matrix"]}
    assert run.check_matrix(matrix, columns, reference) == []
    X = np.array(reference["matrix"])
    X[3, 100] += 1e-6  # far above the 1e-9 tolerance
    wrong = {"news_ids": reference["matrix_news_ids"], "X": X.tolist()}
    assert run.check_matrix(wrong, columns, reference) != []
    X = np.array(reference["matrix"])
    X[0, 0] += 1.0  # n_spreaders: also caught without a reference
    wrong = {"news_ids": reference["matrix_news_ids"], "X": X.tolist()}
    assert run.check_matrix(wrong, columns, None) != []


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_demo",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
