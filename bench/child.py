"""One measured run of a workload in a fresh process.

    python3 bench/child.py WORKLOAD CORPUS_DIR SEED TRACE VERIFY

Loads the corpus and builds the feature extractor (set-up), then runs the
workload's study call with master seed SEED, and prints one JSON object on stdout: set-up and run
wall times, peak resident memory, the study's result rows and, when VERIFY
is 1, the fold-0 feature matrix. With TRACE 1 the newsnet functions listed in
tracer.py are wrapped for the whole run and the spans are returned too; set-up
then runs once, so the spans cover exactly one set-up and one study call.
Untraced, a set-up shorter than SETUP_BUDGET_S repeats until the set-ups add
up to that budget (at most MAX_SETUPS), giving run.py several set-up samples
per process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from newsnet import corpus  # noqa: E402
from newsnet.features import FeatureExtractor  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_BUDGET_S = 1.0
MAX_SETUPS = 5


def _setup(paths, config):
    graph, table = corpus.load_corpus(*paths)
    return FeatureExtractor.build(graph, table, h=config.wl_iterations,
                                  seed=config.seed)


def measure(workload, corpus_dir: Path, seed: int, trace: bool,
            verify: bool) -> dict:
    config = workload.experiment_config(seed)
    paths = [corpus_dir / name for name in workloads.CSV_NAMES]
    run_id = f"{workload.name}-seed{seed}-pid{os.getpid()}"
    tr = tracer.Tracer(run_id).install() if trace else None
    try:
        setups = []
        while True:
            extractor = None  # release the previous extractor before timing
            start = time.perf_counter()
            extractor = _setup(paths, config)
            setups.append(time.perf_counter() - start)
            if (tr is not None or len(setups) >= MAX_SETUPS
                    or sum(setups) >= SETUP_BUDGET_S):
                break
        start = time.perf_counter()
        if tr is None:
            header, rows, matrix = workload.study(extractor, config)
        else:
            header, rows, matrix = tr.call(tracer.DRIVER_SPAN, workload.study,
                                           extractor, config)
        run_s = time.perf_counter() - start
    finally:
        if tr is not None:
            tr.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if verify and matrix is None:
        matrix = workloads.fold0_matrix(extractor, config)
    out = {
        "setup_s": setups,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "header": list(header),
        "rows": [list(row) for row in rows],
        "matrix": None,
    }
    if verify:
        out["matrix"] = {"news_ids": list(matrix.news_ids), "X": matrix.X.tolist()}
    if tr is not None:
        out["spans"] = [span.as_list() for span in tr.spans]
        out["counters"] = dict(tr.counters)
        out["missing_targets"] = list(tr.missing)
    return out


def main(argv) -> int:
    name, corpus_dir, seed, trace, verify = argv
    result = measure(workloads.WORKLOADS[name], Path(corpus_dir), int(seed),
                     trace == "1", verify == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
