"""Command line interface.

Subcommands: ingest, stats, extract, evaluate, ablate, sweep-threshold,
sample-study, early-detect, rank-features, feature-stats, synth.

Common flags: --config <json>, --seed, --out, --jobs; flags replace config
values before validation. Exit codes: 0 success, 1 input error, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments
from .corpus import CorpusError, corpus_stats, load_corpus, save_corpus
from .experiments import ConfigError, ExperimentConfig
from .features import (FEATURE_NAMES, N_FEATURES, FeatureExtractor, extract_matrix,
                       pattern_mask, registry_json)
from .ml.crossval import cross_validate, encode_labels
from .ml.relief import relief_rank
from .synth import SyntheticSpec, generate, write_corpus
from .util import write_csv


def _build_config(args) -> ExperimentConfig:
    """The --config JSON object, or {}, with each given flag replacing its value."""
    keys = ("edges", "engagements", "labels", "seed", "out", "jobs", "classifier",
            "theta", "repetitions")
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if args.patterns is not None:
        flags["patterns"] = tuple(args.patterns.split(","))
    if args.config:
        return ExperimentConfig.from_json_file(args.config, flags)
    return ExperimentConfig.from_dict(flags)


def _require_corpus(config: ExperimentConfig):
    missing = [name for name in ("edges", "engagements", "labels")
               if not getattr(config, name)]
    if missing:
        raise ConfigError(f"missing corpus path(s): {', '.join(missing)} "
                          "(set via --config or flags)")
    return load_corpus(config.edges, config.engagements, config.labels)


def _build_extractor(config: ExperimentConfig) -> tuple:
    """(extractor, output directory), the directory made after every input check."""
    graph, table = _require_corpus(config)
    if not table.labels:
        raise CorpusError("no labeled news", file=Path(config.labels).name)
    extractor = FeatureExtractor.build(graph, table, h=config.wl_iterations,
                                       seed=config.seed)
    return extractor, _out_dir(config)


def _out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc.strerror}") from None
    return out


def _report(data, path=None) -> None:
    """Print `data` as indented JSON and, given a path, write the same text there."""
    text = json.dumps(data, indent=2)
    if path is not None:
        path.write_text(text + "\n", encoding="utf-8")
    print(text)


def cmd_ingest(config, args) -> int:
    graph, table = _require_corpus(config)
    out = _out_dir(config)
    save_corpus(graph, table, out / "edges.csv", out / "engagements.csv",
                out / "labels.csv")
    _report(corpus_stats(graph, table), out / "stats.json")
    return 0


def cmd_stats(config, args) -> int:
    _report(corpus_stats(*_require_corpus(config)))
    return 0


def _descriptive_matrix(config: ExperimentConfig, extractor: FeatureExtractor):
    # full-corpus susceptibility: descriptive analyses, not held-out evaluation
    return extract_matrix(extractor, extractor.table.news_ids(), config.theta)


def cmd_extract(config, args) -> int:
    extractor, out = _build_extractor(config)
    matrix = _descriptive_matrix(config, extractor)
    write_csv(out / "features.csv",
              ["news_id", "label"] + [f"f{i:03d}" for i in range(1, N_FEATURES + 1)],
              ([news, label] + row for news, label, row
               in zip(matrix.news_ids, matrix.labels, matrix.X.tolist())))
    with open(out / "feature_registry.json", "w", encoding="utf-8") as f:
        json.dump(registry_json(), f, indent=2)
    print(f"wrote {out / 'features.csv'} ({len(matrix.news_ids)} news x "
          f"{matrix.X.shape[1]} features)")
    return 0


def cmd_evaluate(config, args) -> int:
    extractor, out = _build_extractor(config)
    mask = pattern_mask(config.patterns)
    report = cross_validate(extractor, classifier=config.classifier, mask=mask,
                            theta=config.theta, seed=config.seed,
                            params=config.classifier_params)
    _report(report.to_dict(), out / "evaluation.json")
    return 0


def cmd_sample_study(config, args) -> int:
    modes = list(dict.fromkeys(args.modes.split(",")))
    unknown = [mode for mode in modes if mode not in experiments.SAMPLING_MODES]
    if unknown:
        raise ConfigError(f"unknown sampling mode(s): {unknown}")
    extractor, out = _build_extractor(config)
    for mode in modes:
        header, rows = experiments.run_sampling_study(extractor, config, mode)
        write_csv(out / f"sampling_{mode}.csv", header, rows)
        print(f"wrote {out / f'sampling_{mode}.csv'} ({len(rows)} rows)")
    return 0


def _relief_ranking(extractor: FeatureExtractor, config: ExperimentConfig):
    matrix = _descriptive_matrix(config, extractor)
    ranking = relief_rank(matrix.X, encode_labels(matrix.labels), seed=config.seed)
    return (("rank", "feature_index", "feature_name", "weight"),
            [(rank + 1, f + 1, FEATURE_NAMES[f], weight)
             for rank, (f, weight) in enumerate(ranking)])


# command -> (output file, study(extractor, config) -> (header, rows),
# summary(rows) -> lines, or None for one "wrote <path> (<n> rows)" line)
STUDIES = {
    "ablate": ("ablation.csv", experiments.run_ablation,
               lambda rows: [f"{row[0]}: accuracy={row[2]:.3f} f1={row[3]:.3f}"
                             for row in rows]),
    "sweep-threshold": ("threshold_sweep.csv", experiments.run_threshold_sweep, None),
    "early-detect": ("early_detection.csv", experiments.run_early_detection, None),
    "rank-features": ("feature_ranking.csv", _relief_ranking,
                      lambda rows: [f"{rank:>3}  {name} (f{index:03d})  weight={weight:.4f}"
                                    for rank, index, name, weight in rows[:10]]),
    "feature-stats": ("feature_stats.csv", lambda extractor, config:
                      experiments.feature_class_stats(_descriptive_matrix(config, extractor)),
                      None),
}


def cmd_study(config, args) -> int:
    """Run one of STUDIES, write its CSV and print its summary."""
    filename, study, summary = STUDIES[args.command]
    extractor, out = _build_extractor(config)
    header, rows = study(extractor, config)
    path = out / filename
    write_csv(path, header, rows)
    for line in summary(rows) if summary else [f"wrote {path} ({len(rows)} rows)"]:
        print(line)
    return 0


def cmd_synth(config, args) -> int:
    spec_data = dict(config.synthetic)
    if args.seed is not None:
        spec_data["seed"] = args.seed
    if args.strong:
        from .synth import STRONG_EFFECTS

        spec_data.update(STRONG_EFFECTS)
    try:
        spec = SyntheticSpec(**spec_data)
        spec.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic spec: {exc}") from None
    out = _out_dir(config)
    _report(write_corpus(generate(spec), out))
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--jobs", type=int, help="sample-study/early-detect processes, at "
                        "most one per distinct task; other commands run serially")
    parser.add_argument("--edges", help="edges.csv path")
    parser.add_argument("--engagements", help="engagements.csv path")
    parser.add_argument("--labels", help="labels.csv path")
    parser.add_argument("--theta", type=float, help="susceptibility threshold")
    parser.add_argument("--classifier", help="random_forest | decision_tree | knn | gaussian_nb")
    parser.add_argument("--patterns", help="comma-separated pattern subset")
    parser.add_argument("--repetitions", type=int, help="resampling repetitions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsnet",
        description="Fake news detection from diffusion patterns on a follow graph")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("ingest", cmd_ingest, "validate a corpus, write canonical copies and stats"),
        ("stats", cmd_stats, "print corpus statistics as JSON"),
        ("extract", cmd_extract, "write the feature matrix and index registry"),
        ("evaluate", cmd_evaluate, "stratified 5-fold cross-validation"),
        ("ablate", cmd_study, "evaluate the 17 canonical pattern subsets"),
        ("sweep-threshold", cmd_study, "re-evaluate across thresholds"),
        ("sample-study", cmd_sample_study, "news count / class balance sampling"),
        ("early-detect", cmd_study, "node/edge-subsampled evaluation"),
        ("rank-features", cmd_study, "Relief feature ranking"),
        ("feature-stats", cmd_study, "per-feature stats split by label"),
        ("synth", cmd_synth, "generate a synthetic corpus"),
    )
    for name, handler, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sample-study":
            p.add_argument("--modes", default="news_count,class_balance",
                           help="comma-separated: news_count, class_balance")
        if name == "synth":
            p.add_argument("--strong", action="store_true",
                           help="use the strong planted effect sizes")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_build_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CorpusError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
