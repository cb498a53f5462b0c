import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import newsnet
from newsnet import cli
from newsnet.cli import main
from newsnet.synth import SyntheticSpec, generate, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate(SyntheticSpec(n_users=60, news_per_class=8, seed=19,
                                    spreader_ratio=2.5, engagement_ratio=2.0))
    write_corpus(corpus, out)
    return out


def _corpus_flags(corpus_dir):
    return ["--edges", str(corpus_dir / "edges.csv"),
            "--engagements", str(corpus_dir / "engagements.csv"),
            "--labels", str(corpus_dir / "labels.csv")]


def test_synth_and_ingest(tmp_path, capsys):
    out = tmp_path / "synthetic"
    assert main(["synth", "--out", str(out), "--seed", "3"]) == 0
    assert (out / "edges.csv").is_file()
    assert (out / "truth.json").is_file()

    stats_out = tmp_path / "ingested"
    code = main(["ingest", "--edges", str(out / "edges.csv"),
                 "--engagements", str(out / "engagements.csv"),
                 "--labels", str(out / "labels.csv"), "--out", str(stats_out)])
    assert code == 0
    stats = json.loads((stats_out / "stats.json").read_text())
    assert stats["n_news"] == 100
    assert (stats_out / "edges.csv").is_file()


def test_stats_prints_json(corpus_dir, capsys):
    assert main(["stats"] + _corpus_flags(corpus_dir)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n_news"] == 16


def test_extract_writes_matrix_and_registry(corpus_dir, tmp_path):
    out = tmp_path / "features"
    assert main(["extract"] + _corpus_flags(corpus_dir) + ["--out", str(out)]) == 0
    lines = (out / "features.csv").read_text().strip().splitlines()
    assert len(lines) == 17  # header + 16 news
    registry = json.loads((out / "feature_registry.json").read_text())
    assert len(registry) == 142
    assert registry[0] == {"index": 1, "name": "n_spreaders",
                           "pattern": "more_spreaders"}


def test_evaluate_and_rank(corpus_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate"] + _corpus_flags(corpus_dir)
                + ["--out", str(out), "--seed", "5"]) == 0
    report = json.loads((out / "evaluation.json").read_text())
    assert report["classifier"] == "random_forest"
    assert len(report["fold_accuracy"]) == 5

    assert main(["rank-features"] + _corpus_flags(corpus_dir)
                + ["--out", str(out), "--seed", "5"]) == 0
    ranking = (out / "feature_ranking.csv").read_text().strip().splitlines()
    assert ranking[0] == "rank,feature_index,feature_name,weight"
    assert len(ranking) == 143


def test_grid_commands_with_config(corpus_dir, tmp_path):
    config = {
        "edges": str(corpus_dir / "edges.csv"),
        "engagements": str(corpus_dir / "engagements.csv"),
        "labels": str(corpus_dir / "labels.csv"),
        "seed": 9,
        "repetitions": 1,
        "proportions": [1.0],
        "theta_grid": [0.3, 0.7],
        "sweep_subsets": ["farther_distance"],
        "balance_fractions": [0.5],
        "modes": ["edges"],
        "out": str(tmp_path / "grid"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["sweep-threshold", "--config", str(config_path)]) == 0
    assert main(["early-detect", "--config", str(config_path)]) == 0
    assert main(["sample-study", "--config", str(config_path),
                 "--modes", "news_count"]) == 0
    assert main(["feature-stats", "--config", str(config_path)]) == 0
    out = tmp_path / "grid"
    sweep = (out / "threshold_sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "theta,subset,accuracy,f1"
    assert len(sweep) == 3
    assert (out / "early_detection.csv").is_file()
    assert (out / "sampling_news_count.csv").is_file()
    assert (out / "feature_stats.csv").is_file()


# Each corpus command with default settings on `corpus_dir`: its stdout, the
# output directory shown as <out>, and the sha256 of every file it writes.
# ingest, stats and evaluate print a JSON document, pinned by its sha256; it
# is the text of the stats.json or evaluation.json they write.
_STATS_JSON = "e8a39a57c8b21cacd44be26bd781fc522e7f59c17dcd7a1309c2dfc7ee120ac9"
_EVALUATION_JSON = "5766afe99eb0c368563b67d34241a763afca7425180f6acb668ca79d0d985095"
COMMAND_OUTPUTS = {
    "ingest": (_STATS_JSON, {
        "edges.csv": "14bb6f80a5f0f125d3050086814f2ccbd2a2726f76fbc617b4b7bbc79cd8f0ec",
        "engagements.csv": "53ffdd3e39ac5b9a97a01305a8b0b9476d6745da8e922fa273c024946a856fc3",
        "labels.csv": "9a7058ab323be99f29e4d521a252fdafd7fb2c21fcae86c4e330dc99fc5986a4",
        "stats.json": _STATS_JSON,
    }),
    "stats": (_STATS_JSON, {}),
    "extract": ("wrote <out>/features.csv (16 news x 142 features)\n", {
        "feature_registry.json":
            "3654b92543b26d3bf01232dc124037ca32f2eac5a67f4ca1a3e66c98603a0ae9",
        "features.csv": "2d4fa7899237e2915c6d1ce7cf8e9365a9e733d33965f7bc51b51c85846ee8e4",
    }),
    "evaluate": (_EVALUATION_JSON, {"evaluation.json": _EVALUATION_JSON}),
    "ablate": ("""\
more_spreaders: accuracy=0.950 f1=0.960
farther_distance: accuracy=0.850 f1=0.867
stronger_engagement: accuracy=1.000 f1=1.000
denser_networks: accuracy=1.000 f1=1.000
more_spreaders+farther_distance: accuracy=1.000 f1=1.000
more_spreaders+stronger_engagement: accuracy=1.000 f1=1.000
more_spreaders+denser_networks: accuracy=1.000 f1=1.000
farther_distance+stronger_engagement: accuracy=0.950 f1=0.933
farther_distance+denser_networks: accuracy=0.950 f1=0.933
stronger_engagement+denser_networks: accuracy=1.000 f1=1.000
all_minus_denser_networks: accuracy=1.000 f1=1.000
all_minus_stronger_engagement: accuracy=1.000 f1=1.000
all_minus_farther_distance: accuracy=1.000 f1=1.000
all_minus_more_spreaders: accuracy=0.950 f1=0.933
all_patterns: accuracy=1.000 f1=1.000
similarity_only: accuracy=1.000 f1=1.000
all_plus_similarity: accuracy=1.000 f1=1.000
""", {"ablation.csv": "6e41eb1717d6d969592ea216e043f6e2235572bb98bec9aa5926259c1cb78cc3"}),
    "sweep-threshold": ("wrote <out>/threshold_sweep.csv (77 rows)\n", {
        "threshold_sweep.csv":
            "6a3ce82fd9fc2c7b93e998149fc337b59d6c04ee11e8c4e13ff1eff66343934c",
    }),
    "sample-study": ("wrote <out>/sampling_news_count.csv (10 rows)\n"
                     "wrote <out>/sampling_class_balance.csv (9 rows)\n", {
        "sampling_class_balance.csv":
            "d1b8f505503fb457d84a586f372d743408030f038a6ffb214f9d2a4b26cb5201",
        "sampling_news_count.csv":
            "9c564c361ce64eeb871e5b88d29f12d9f67c461e2e942c4cb25aa54d87b95347",
    }),
    "early-detect": ("wrote <out>/early_detection.csv (20 rows)\n", {
        "early_detection.csv":
            "237f84f6ff9ed05714d662c20f8d39f11527421991665da47d2b2d04574a2a80",
    }),
    "rank-features": ("""\
  1  sim_fake_id (f139)  weight=12.8861
  2  pct_edges_ss_news (f070)  weight=11.4034
  3  mean_susceptibility_freq (f011)  weight=10.8595
  4  sim_true_id (f140)  weight=10.1629
  5  community_density_global (f137)  weight=9.8733
  6  median_susceptibility_freq (f013)  weight=9.6203
  7  pct_edges_delta_zero_news (f078)  weight=9.3792
  8  mean_susceptibility_news (f010)  weight=8.9911
  9  n_edges_delta_zero_news (f076)  weight=8.5000
 10  n_susceptible_spreaders_news (f004)  weight=8.3636
""", {"feature_ranking.csv": "f57724275b858b9ced239e084ff726a4ea486008efdcf0805b6013cc78257dec"}),
    "feature-stats": ("wrote <out>/feature_stats.csv (284 rows)\n", {
        "feature_stats.csv": "99865297e3685436fb59c1166243f4f8df842f441ebc45ee12c313d92eb49ae0",
    }),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="pinned on CPython 3.11, like tests/test_pinned_outputs.py")
@pytest.mark.parametrize("command", COMMAND_OUTPUTS)
def test_command_stdout_and_files_are_pinned(corpus_dir, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--out", str(out)] + _corpus_flags(corpus_dir)) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    expected_stdout, expected_files = COMMAND_OUTPUTS[command]
    if command in ("ingest", "stats", "evaluate"):
        stdout = _sha256(stdout.encode())
    assert stdout == expected_stdout
    written = sorted(out.iterdir()) if out.exists() else []
    assert {path.name: _sha256(path.read_bytes()) for path in written} == expected_files


def test_exit_code_input_error(tmp_path, capsys):
    code = main(["stats", "--edges", str(tmp_path / "missing.csv"),
                 "--engagements", str(tmp_path / "missing.csv"),
                 "--labels", str(tmp_path / "missing.csv")])
    assert code == 1


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"classifier": "svm"}')
    assert main(["stats", "--config", str(bad)]) == 2
    missing_paths = tmp_path / "empty.json"
    missing_paths.write_text("{}")
    assert main(["evaluate", "--config", str(missing_paths)]) == 2


def test_config_that_is_not_utf8_is_a_config_error(corpus_dir, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"theta": 0.5, "out": "caf\xe9"}')
    out = tmp_path / "out"
    assert main(["stats", "--config", str(path), "--out", str(out)]
                + _corpus_flags(corpus_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}: ")
    assert err.count("\n") == 1
    assert "can't decode byte 0xe9" in err
    assert not out.exists()


@pytest.mark.parametrize("classifier,params,message", [
    ("random_forest", {"n_trees": 0}, "'n_trees' must be an int >= 1"),
    ("random_forest", {"n_tree": 5}, "does not take parameter 'n_tree'"),
    ("random_forest", {"max_features": "log2"}, "'max_features' must be"),
    ("random_forest", {"max_depth": -1}, "'max_depth' must be"),
    ("random_forest", {"min_leaf": 0}, "'min_leaf' must be"),
    ("random_forest", {"bootstrap": 1}, "'bootstrap' must be"),
    ("random_forest", {"seed": 3}, "does not take parameter 'seed'"),
    ("decision_tree", {"max_features": 3}, "does not take parameter 'max_features'"),
    ("knn", {"k": 0}, "'k' must be an int >= 1"),
    ("knn", {"n_trees": 5}, "does not take parameter 'n_trees'"),
    ("gaussian_nb", {"k": 3}, "does not take parameter 'k'"),
])
def test_classifier_params_rejected_as_config_error(corpus_dir, tmp_path, capsys,
                                                     classifier, params, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": classifier,
                                  "classifier_params": params}))
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "out")]
                + _corpus_flags(corpus_dir))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,config,message", [
    ("evaluate", {"patterns": []}, "patterns must be a nonempty list"),
    ("sweep-threshold", {"sweep_subsets": []},
     "sweep_subsets must be a nonempty list"),
    ("early-detect", {"modes": []}, "modes must be a nonempty list"),
    ("evaluate", {"jobs": "2"}, "jobs must be an int"),
    ("evaluate", {"jobs": True}, "jobs must be an int"),
    ("evaluate", {"seed": 1.0}, "seed must be an int"),
    ("early-detect", {"repetitions": "5"}, "repetitions must be an int"),
    ("evaluate", {"wl_iterations": 1.5}, "wl_iterations must be an int"),
    ("evaluate", {"theta": "0.5"}, "theta must be a number"),
    ("evaluate", {"theta": False}, "theta must be a number"),
    ("sweep-threshold", {"theta_grid": [0.1, "0.5"]},
     "theta_grid values must be numbers"),
    ("early-detect", {"proportions": [True]}, "proportions values must be numbers"),
    ("sample-study", {"balance_total": "20"}, "balance_total must be null or an int"),
    ("sample-study", {"balance_total": 0}, "balance_total must be null or an int >= 1"),
    ("sample-study", {"balance_fractions": 0.5},
     "balance_fractions must be a nonempty list"),
    ("sample-study", {"balance_fractions": [0.0], "balance_total": None},
     "balance_fractions need a value above 0 when balance_total is null"),
    ("evaluate", {"synthetic": [1]}, "synthetic must be a JSON object"),
    # null is not "the default": only the corpus paths and balance_total take it
    ("evaluate", {"theta": None}, "theta must be a number"),
    ("evaluate", {"seed": None}, "seed must be an int"),
    ("evaluate", {"patterns": None}, "patterns must be a nonempty list"),
    ("early-detect", {"jobs": None}, "jobs must be an int"),
    ("evaluate", {"wl_iterations": None}, "wl_iterations must be an int"),
])
def test_bad_config_values_exit_two_before_output(corpus_dir, tmp_path, capsys,
                                                  command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)]
                + _corpus_flags(corpus_dir))
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flags,code", [([], 2), (["--theta", "0.5"], 0)])
def test_flag_replaces_a_config_value_before_the_one_validation(corpus_dir, tmp_path,
                                                               flags, code):
    # the config's theta is out of range; a --theta flag replaces it unchecked
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"theta": 5}))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(path), "--out", str(out)] + flags
                + _corpus_flags(corpus_dir)) == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("synthetic,message", [
    ({"n_users": "80"}, "n_users must be an int"),
    ({"n_users": 80.0}, "n_users must be an int"),
    ({"news_per_class": True}, "news_per_class must be an int"),
    ({"edge_prob": "0.1"}, "edge_prob must be a finite number"),
    ({"depth_effect": None}, "depth_effect must be a finite number"),
    ({"depth_effect": float("nan")}, "depth_effect must be a finite number"),
    ({"n_users": -5}, "need at least 2 users"),
    ({"edge_prob": 2.0}, "edge_prob must be in [0, 1]"),
    ({"spreader_ratio": 0.5}, "spreader_ratio must be >= 1"),
    ({"base_spreaders": 500}, "infeasible spec"),
    ([["n_users", 80]], "synthetic must be a JSON object"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"base_engagement": -1}, "base_engagement must be >= 0"),
    ({"susceptible_fraction": 1.5}, "susceptible_fraction must be in [0, 1]"),
    ({"susceptible_fraction": -0.5}, "susceptible_fraction must be in [0, 1]"),
    ({"base_spreaders": 0}, "base_spreaders must be >= 1"),
    ({"base_spreaders": -3}, "base_spreaders must be >= 1"),
])
def test_bad_synthetic_spec_exits_two_before_output(tmp_path, capsys, synthetic,
                                                    message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synthetic": synthetic}))
    out = tmp_path / "out"
    code = main(["synth", "--config", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert message in err
    assert not out.exists()


def test_negative_synth_seed_flag_exits_two_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["synth", "--seed", "-1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "seed must be >= 0" in err
    assert not out.exists()


def test_bad_sampling_mode_exits_two_before_output(corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sample-study", "--out", str(out), "--repetitions", "1",
                 "--modes", "news_count,bogus"] + _corpus_flags(corpus_dir))
    assert code == 2
    assert "unknown sampling mode(s): ['bogus']" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_sampling_mode_runs_once(corpus_dir, tmp_path, capsys, monkeypatch):
    ran = []
    study = cli.experiments.run_sampling_study
    monkeypatch.setattr(cli.experiments, "run_sampling_study",
                        lambda extractor, config, mode: ran.append(mode)
                        or study(extractor, config, mode))
    out = tmp_path / "out"
    assert main(["sample-study", "--out", str(out), "--repetitions", "1",
                 "--modes", "news_count,news_count"] + _corpus_flags(corpus_dir)) == 0
    assert ran == ["news_count"]
    assert capsys.readouterr().out == f"wrote {out / 'sampling_news_count.csv'} (10 rows)\n"
    assert [path.name for path in out.iterdir()] == ["sampling_news_count.csv"]


@pytest.mark.parametrize("command", ["stats", "extract"])
def test_count_beyond_two_to_the_53_exits_one(tmp_path, capsys, command):
    (tmp_path / "edges.csv").write_text("follower,followee\na,b\n")
    (tmp_path / "engagements.csv").write_text("news_id,user_id,count\n"
                                              "n1,a,99999999999999999999\n")
    (tmp_path / "labels.csv").write_text("news_id,label\nn1,fake\n")
    out = tmp_path / "out"
    assert main([command, "--out", str(out)] + _corpus_flags(tmp_path)) == 1
    assert capsys.readouterr().err == ("input error: engagements.csv:2: count for "
                                       "('n1', 'a') sums to 99999999999999999999, "
                                       "above 2**53\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "ingest", "extract", "ablate"])
@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_a_directory_is_a_config_error(corpus_dir, tmp_path, capsys,
                                                          command, under):
    # --out names an existing file, or a path under one
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    out = blocker / "sub" if under else blocker
    flags = [] if command == "synth" else _corpus_flags(corpus_dir)
    assert main([command, "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: cannot make output directory {str(out)!r}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "keep me\n"


@pytest.mark.parametrize("command", ["extract", "evaluate", "ablate", "sweep-threshold",
                                     "early-detect", "rank-features", "feature-stats",
                                     "sample-study"])
def test_out_under_a_file_ends_a_command_before_its_work(corpus_dir, tmp_path, capsys,
                                                         monkeypatch, command):
    def work(*args, **kwargs):
        raise AssertionError(f"{command} ran its work")

    monkeypatch.setattr(cli, "_descriptive_matrix", work)
    monkeypatch.setattr(cli, "cross_validate", work)
    monkeypatch.setattr(cli.experiments, "run_sampling_study", work)
    for name, (filename, _, summary) in list(cli.STUDIES.items()):
        monkeypatch.setitem(cli.STUDIES, name, (filename, work, summary))
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    out = blocker / "sub"
    assert main([command, "--out", str(out)] + _corpus_flags(corpus_dir)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {str(out)!r}: ")
    assert err.count("\n") == 1
    assert blocker.read_text() == "keep me\n"


def test_classifier_params_accepted(corpus_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier_params": {
        "n_trees": 7, "max_features": 3, "max_depth": None, "min_leaf": 2,
        "bootstrap": False}}))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(config), "--out", str(out), "--seed", "5"]
                + _corpus_flags(corpus_dir)) == 0
    assert len(json.loads((out / "evaluation.json").read_text())["fold_f1"]) == 5


def test_malformed_corpus_exit_one(tmp_path):
    (tmp_path / "edges.csv").write_text("follower,followee\nu1,u1\n")
    (tmp_path / "engagements.csv").write_text("news_id,user_id,count\nn1,u9,1\n")
    (tmp_path / "labels.csv").write_text("news_id,label\nn1,fake\n")
    assert main(["stats"] + _corpus_flags(tmp_path)) == 1


def _relabelled_flags(corpus_dir, tmp_path, n_true):
    """corpus_dir's corpus with all but its first n_true true news labelled fake."""
    lines = (corpus_dir / "labels.csv").read_text().splitlines()
    true = [i for i, line in enumerate(lines) if line.endswith(",true")]
    for i in true[n_true:]:
        lines[i] = lines[i].removesuffix("true") + "fake"
    (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
    return ["--edges", str(corpus_dir / "edges.csv"),
            "--engagements", str(corpus_dir / "engagements.csv"),
            "--labels", str(tmp_path / "labels.csv")]


@pytest.mark.parametrize("command,n_true,message", [
    ("evaluate", 0, "single-class training set"),
    ("evaluate", 4, "too few 'true' news to stratify"),
    ("rank-features", 1, "relief requires at least 2 samples per class"),
])
def test_unusable_labels_exit_one(corpus_dir, tmp_path, capsys, command, n_true,
                                  message):
    flags = _relabelled_flags(corpus_dir, tmp_path, n_true)
    assert main([command, "--out", str(tmp_path / "out")] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize("command,edges,labels,message", [
    ("extract", "", "n1,fake\n", "centralities require a nonempty graph"),
    ("extract", "u1,u2\n", "", "labels.csv: no labeled news"),
])
def test_empty_corpus_files_exit_one(tmp_path, capsys, command, edges, labels, message):
    (tmp_path / "edges.csv").write_text("follower,followee\n" + edges)
    (tmp_path / "engagements.csv").write_text("news_id,user_id,count\n")
    (tmp_path / "labels.csv").write_text("news_id,label\n" + labels)
    assert main([command, "--out", str(tmp_path / "out")] + _corpus_flags(tmp_path)) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_internal_value_error_is_not_an_input_error(corpus_dir, monkeypatch):
    def broken(graph, table):
        raise ValueError("a program bug")

    monkeypatch.setattr(cli, "corpus_stats", broken)
    with pytest.raises(ValueError, match="a program bug"):
        main(["stats"] + _corpus_flags(corpus_dir))


@pytest.mark.parametrize("name", ["edges.csv", "engagements.csv", "labels.csv"])
def test_non_utf8_corpus_file_exits_one(corpus_dir, tmp_path, capsys, name):
    flags = _corpus_flags(corpus_dir)
    bad = tmp_path / name
    bad.write_bytes((corpus_dir / name).read_bytes() + b"\xff\n")
    flags[flags.index(str(corpus_dir / name))] = str(bad)
    assert main(["stats"] + flags) == 1
    assert capsys.readouterr().err == f"input error: {name}: not UTF-8 text\n"


@pytest.mark.parametrize("name", ["edges.csv", "engagements.csv", "labels.csv"])
def test_csv_field_over_the_size_limit_exits_one(corpus_dir, tmp_path, capsys, name):
    flags = _corpus_flags(corpus_dir)
    text = (corpus_dir / name).read_bytes()
    bad = tmp_path / name
    bad.write_bytes(text + b"n" * 200_000 + b",u0001,1\n")
    flags[flags.index(str(corpus_dir / name))] = str(bad)
    assert main(["stats"] + flags) == 1
    line = len(text.splitlines()) + 1
    assert capsys.readouterr().err == (
        f"input error: {name}:{line}: field larger than field limit (131072)\n")


@pytest.mark.parametrize("name", ["edges.csv", "engagements.csv", "labels.csv"])
def test_unreadable_corpus_file_exits_one(corpus_dir, capsys, monkeypatch, name):
    def guarded_open(path, *args, **kwargs):
        if Path(path).name == name:
            raise PermissionError(13, "Permission denied")
        return open(path, *args, **kwargs)

    monkeypatch.setattr("newsnet.corpus.open", guarded_open, raising=False)
    assert main(["stats"] + _corpus_flags(corpus_dir)) == 1
    assert capsys.readouterr().err == f"input error: {name}: cannot read: Permission denied\n"


@pytest.mark.parametrize("flags,message", [
    (["--out", ""], "out must not be empty"),
    (["--config", "empty_out.json"], "out must not be empty"),
    (["--patterns", ""], "unknown patterns value(s): ['']"),
    (["--config", "null_out.json"], "out must be a path string"),
])
def test_empty_out_or_patterns_is_a_config_error(corpus_dir, tmp_path, capsys, monkeypatch,
                                                 flags, message):
    # Path("") is the working directory, which would take the command's files
    (tmp_path / "empty_out.json").write_text(json.dumps({"out": ""}))
    (tmp_path / "null_out.json").write_text(json.dumps({"out": None}))
    flags = [str(tmp_path / flag) if flag.endswith(".json") else flag for flag in flags]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["rank-features"] + flags + _corpus_flags(corpus_dir)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(work.iterdir()) == []


def test_missing_file_inside_a_study_is_not_an_input_error(corpus_dir, tmp_path,
                                                           monkeypatch, capsys):
    # every missing input is a CorpusError or ConfigError before any study runs
    def broken(extractor, config):
        raise FileNotFoundError("a program bug")

    monkeypatch.setitem(cli.STUDIES, "ablate", ("ablation.csv", broken, None))
    with pytest.raises(FileNotFoundError, match="a program bug"):
        main(["ablate", "--out", str(tmp_path / "out")] + _corpus_flags(corpus_dir))
    assert "input error" not in capsys.readouterr().err


def test_byte_identical_across_hash_seeds(corpus_dir, tmp_path):
    """Re-running in fresh interpreters with different hash seeds must agree."""
    # the child imports the same newsnet as this process, installed or not
    src = str(Path(newsnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"run{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        cmd = [sys.executable, "-m", "newsnet.cli", "evaluate",
               "--seed", "5", "--out", str(out)] + _corpus_flags(corpus_dir)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "evaluation.json").read_bytes())
    assert outputs[0] == outputs[1]


LAZY_MODULES = ("concurrent.futures", "multiprocessing", "numpy.random")


@pytest.mark.parametrize("command, loaded", [
    ([], []),
    (["rank-features"], []),
    # the forest's draws are part of the result
    (["evaluate"], ["numpy.random"]),
], ids=["import", "rank-features", "evaluate"])
def test_a_run_imports_only_what_it_runs(corpus_dir, tmp_path, command, loaded):
    # a fresh interpreter imports the CLI and runs the command at --jobs 1;
    # the pool's modules load only when a pool starts
    src = str(Path(newsnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    args = command and command + ["--out", str(tmp_path)] + _corpus_flags(corpus_dir)
    code = ("import json, sys\nfrom newsnet import cli\n"
            f"assert not {args!r} or cli.main({args!r}) == 0\n"
            f"print(json.dumps([m for m in {LAZY_MODULES!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded


def test_readme_cli_block_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("newsnet ")]
    subcommands, = (action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert sorted(shown) == sorted(subcommands)
