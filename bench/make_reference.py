"""Write bench/reference/<workload>.json from the current code at the default seed.

    python3 bench/make_reference.py [WORKLOAD ...]

A reference pins the corpus sha256 of each CSV, the study's result rows and
the fold-0 feature matrix. run.py compares every run at the default seed with
it. Regenerate only in a change that means to alter the benchmark's inputs or
the program's outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run


def main(names) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        corpus_dir = run.WORK / name
        corpus_dir.mkdir(parents=True, exist_ok=True)
        digests = workloads.write_inputs(workload, corpus_dir)
        record = run.run_child(name, corpus_dir, workloads.DEFAULT_SEED, trace=False,
                               verify=True, timeout=run.RUN_LIMIT_S)
        if "error" in record:
            print(f"{name}: {record['error']}", file=sys.stderr)
            return 1
        columns = workloads.expected_columns(corpus_dir)
        problems = (workloads.check_rows(workload, record["rows"])
                    + run.check_matrix(record["matrix"], columns, None))
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        lines = [
            '{"workload": ' + json.dumps(name) + ",",
            ' "corpus_seed": ' + json.dumps(workloads.CORPUS_SEED) + ",",
            ' "master_seed": ' + json.dumps(workloads.DEFAULT_SEED) + ",",
            ' "corpus_sha256": ' + json.dumps(digests, sort_keys=True) + ",",
            ' "header": ' + json.dumps(record["header"]) + ",",
            ' "rows": [\n  ' + ",\n  ".join(json.dumps(r) for r in record["rows"]) + "],",
            ' "matrix_news_ids": ' + json.dumps(record["matrix"]["news_ids"]) + ",",
            ' "matrix": [\n  ' + ",\n  ".join(json.dumps(x)
                                              for x in record["matrix"]["X"]) + "]}",
        ]
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        (run.REFERENCE_DIR / f"{name}.json").write_text("\n".join(lines) + "\n")
        print(f"wrote {run.REFERENCE_DIR / f'{name}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
