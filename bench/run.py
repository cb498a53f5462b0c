"""The newsnet benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload sweep_demo [--seed 7] [--seconds 25] [--trace 0]

Run from the root of a source checkout; newsnet is imported from its `src`.
The workload's fixed corpus is generated into .bench_work/ and checked against
its pinned sha256. Fresh child processes (bench/child.py) then run the
workload with master seed --seed, one after another until --seconds have
passed: one closed-loop client, `jobs = 1`. Each child's
outputs are checked, and a child that fails or gives a wrong output counts in
`failed`. The metrics are medians over the children that passed.

--trace 1 runs one untraced and one traced child instead, checks that their
outputs are byte-identical and reports the per-module metrics of the traced
one. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. README.md documents the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE_DIR = HERE / "reference"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, child start-up included
MATRIX_RTOL = 1e-9  # |x - ref| <= MATRIX_RTOL * max(1, |ref|)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Bounded in BENCHMARK.json. run_s is printed too but not bounded: see README.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PRINTED = (("setup_s", "s"), ("run_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list:
    """(name, unit) of every metric a traced run reports."""
    out = []
    for name in tracer.SPAN_NAMES:
        out += [(f"{name}_s", "s"), (f"{name}_calls", "count"),
                (f"{name}_self_s", "s")]
    out += [(f"{name}_calls", "count") for name in tracer.COUNTER_NAMES]
    out += [(f"{module}.self_s", "s") for module in tracer.MODULES]
    out += [("trace.setup_s", "s"), ("trace.run_s", "s"),
            ("trace.self_total_s", "s"), ("trace.overhead_s", "s")]
    return out


def _canon(value) -> str:
    return json.dumps(value, sort_keys=True)


def run_child(workload: str, corpus_dir: Path, seed: int, trace: bool,
              verify: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(corpus_dir),
           str(seed), str(int(trace)), str(int(verify))]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    record = {"trace": trace, "load_1min": [os.getloadavg()[0]]}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["error"] = f"child timed out after {timeout:.0f} s"
    else:
        if proc.returncode != 0:
            record["error"] = (f"child exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        else:
            record.update(json.loads(proc.stdout.splitlines()[-1]))
    record["child_s"] = time.monotonic() - start
    record["load_1min"].append(os.getloadavg()[0])
    return record


def check_matrix(matrix: dict, columns: dict, reference: dict | None) -> list:
    import numpy as np
    from newsnet.features import N_FEATURES, feature_index

    problems = []
    ids = matrix["news_ids"]
    X = np.array(matrix["X"], dtype=np.float64)
    if X.shape != (len(ids), N_FEATURES) or not np.isfinite(X).all():
        return [f"fold-0 matrix has shape {X.shape} or non-finite values"]
    for name, by_news in columns.items():
        if X[:, feature_index(name) - 1].tolist() != [by_news[n] for n in ids]:
            problems.append(f"fold-0 column {name} differs from its closed form")
    if reference is not None:
        R = np.array(reference["matrix"], dtype=np.float64)
        if ids != reference["matrix_news_ids"] or R.shape != X.shape:
            problems.append("fold-0 matrix covers other news than the reference")
        else:
            err = np.abs(X - R) / np.maximum(1.0, np.abs(R))
            if err.max() > MATRIX_RTOL:
                problems.append(f"fold-0 matrix differs from the reference: "
                                f"max relative error {err.max():.3g}")
    return problems


def check_child(record: dict, workload, columns: dict, reference: dict | None,
                baseline: dict | None) -> list:
    """Problems with one child's outputs; an empty list means it passed."""
    import workloads

    if "error" in record:
        return [record["error"]]
    if record.get("missing_targets"):
        print(f"warning: trace targets not found: {record['missing_targets']}",
              file=sys.stderr)
    problems = workloads.check_rows(workload, record["rows"])
    if reference is not None and record["rows"] != reference["rows"]:
        problems.append("result rows differ from the stored reference")
    if record["matrix"] is not None:
        problems += check_matrix(record["matrix"], columns, reference)
    if baseline is not None:
        if _canon(record["rows"]) != _canon(baseline["rows"]):
            problems.append("result rows differ from this run's first child")
        if (record["matrix"] is not None and baseline["matrix"] is not None
                and _canon(record["matrix"]) != _canon(baseline["matrix"])):
            problems.append("fold-0 matrix differs from this run's first child")
    return problems


def end_to_end_metrics(passed: list) -> dict:
    med = statistics.median
    return {
        "setup_s": med([s for r in passed for s in r["setup_s"]]),
        "run_s": med(r["run_s"] for r in passed),
        "wall_s": med(med(r["setup_s"]) + r["run_s"] for r in passed),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in passed),
    }


def layer_metrics(traced: dict, untraced: dict) -> dict:
    summary = tracer.summarize(traced["spans"])
    out = {}
    for name in tracer.SPAN_NAMES:
        entry = summary[name]
        out[f"{name}_s"] = entry["s"]
        out[f"{name}_calls"] = entry["calls"]
        out[f"{name}_self_s"] = entry["self_s"]
    for name in tracer.COUNTER_NAMES:
        out[f"{name}_calls"] = traced["counters"][name]
    for module, self_s in tracer.module_self_times(summary).items():
        out[f"{module}.self_s"] = self_s
    out["trace.setup_s"] = traced["setup_s"][0]
    out["trace.run_s"] = traced["run_s"]
    out["trace.self_total_s"] = sum(e["self_s"] for e in summary.values())
    out["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # the checkout may not be a git repository; never search above it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_context() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit()}


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as f:
        return json.load(f)


def prepare_corpus(workload) -> Path:
    import workloads

    corpus_dir = WORK / workload.name
    corpus_dir.mkdir(parents=True, exist_ok=True)
    digests = workloads.write_inputs(workload, corpus_dir)
    pinned = load_reference(workload.name)["corpus_sha256"]
    if digests != pinned:
        raise SystemExit(
            f"error: the {workload.name} corpus differs from the one pinned in "
            f"bench/reference/{workload.name}.json (got {digests}, pinned "
            f"{pinned}). newsnet.synth changed, so the benchmark's inputs changed "
            "and its timings are not comparable with earlier runs.")
    return corpus_dir


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7,
                        help="the study's master seed (default 7)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "newsnet" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'newsnet'} not found; run the benchmark "
              "from the root of a newsnet source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    context = machine_context()
    context["load_1min_start"] = os.getloadavg()[0]
    start = time.monotonic()
    corpus_dir = prepare_corpus(workload)
    reference = (load_reference(workload.name)
                 if args.seed == workloads.DEFAULT_SEED else None)
    columns = workloads.expected_columns(corpus_dir)

    def child(trace: bool, verify: bool) -> dict:
        left = RUN_LIMIT_S - (time.monotonic() - start)
        return run_child(workload.name, corpus_dir, args.seed, trace, verify, left)

    if args.trace:
        records = [child(trace=False, verify=True), child(trace=True, verify=True)]
    else:
        records = [child(trace=False, verify=True)]
        while True:
            elapsed = time.monotonic() - start
            if (elapsed >= args.seconds
                    or RUN_LIMIT_S - elapsed < 1.5 * records[-1]["child_s"]):
                break
            records.append(child(trace=False, verify=False))
    context["load_1min_end"] = os.getloadavg()[0]

    baseline = next((r for r in records if "error" not in r), None)
    for record in records:
        record["problems"] = check_child(
            record, workload, columns, reference,
            None if record is baseline else baseline)
    passed = [r for r in records if not r["problems"]]
    failed = len(records) - len(passed)

    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(records)} runs, {failed} failed")
    for i, record in enumerate(records):
        for problem in record["problems"]:
            print(f"  run {i}: check failed: {problem}")
    if args.trace:
        untraced, traced = records
        if "spans" not in traced or "error" in untraced:
            print("error: the traced run produced no trace", file=sys.stderr)
            return 1
        values = layer_metrics(traced, untraced)
        units = dict(per_layer_metrics())
        (WORK / f"spans-{workload.name}-seed{args.seed}.json").write_text(
            json.dumps({"schema": ["id", "name", "start", "end", "parent", "run_id"],
                        "spans": traced["spans"], "counters": traced["counters"]}))
    else:
        if not passed:
            print("error: no run passed its output checks", file=sys.stderr)
            return 1
        values = end_to_end_metrics(passed)
        units = dict(END_TO_END)
        n_setups = sum(len(r["setup_s"]) for r in passed)
        for name, unit in PRINTED:
            n = n_setups if name == "setup_s" else len(passed)
            print(f"  {name:<12} {values[name]:>12.4f} {unit:<5} median of {n}")
        print(f"  {'errors':<12} {failed:>12d} count of {len(records)} attempted")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    for record in records:
        for key in ("rows", "header", "matrix", "spans"):
            record.pop(key, None)
    context["runs"] = records
    print("context " + json.dumps(context))
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "context": context, "values": values},
                   indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
