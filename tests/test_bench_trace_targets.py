"""The benchmark's tracer must still find, and reach, every name it wraps.

`bench/tracer.py` patches module and class attributes by name; a rename or
deletion in the package would silently drop a span from the benchmark, and
so would a refactor that calls around a wrapped name. These checks run with
the package's own tests; `python3 -m pytest bench` repeats the first among
the slower benchmark tests.
"""

from pathlib import Path

from newsnet.synth import SyntheticSpec, generate, write_corpus

from oracles import ALL_FEATURES

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    traced = tracer.Tracer("targets").install()
    try:
        assert traced.missing == []
    finally:
        traced.uninstall()


def test_every_trace_span_is_reached(monkeypatch, tmp_path):
    # The wl.kernel counter is left out: the Gram matrices replaced the
    # pairwise kernel calls it counts.
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    from newsnet import corpus, experiments, features
    from newsnet.ml import crossval, relief

    write_corpus(generate(SyntheticSpec(n_users=40, news_per_class=5, seed=3)), tmp_path)
    traced = tracer.Tracer("reached").install()
    try:
        graph, table = corpus.load_corpus(tmp_path / "edges.csv",
                                          tmp_path / "engagements.csv",
                                          tmp_path / "labels.csv")
        extractor = features.FeatureExtractor.build(graph, table)
        for kind in crossval.CLASSIFIERS:
            crossval.cross_validate(extractor, mask=ALL_FEATURES, classifier=kind)
        experiments.run_early_detection(extractor, experiments.ExperimentConfig(
            modes=("nodes",), proportions=(0.5,), repetitions=1))
        matrix = features.extract_matrix(extractor, table.news_ids(), 0.5)
        relief.relief_rank(matrix.X, crossval.encode_labels(matrix.labels))
    finally:
        traced.uninstall()
    reached = {span.name for span in traced.spans}
    assert [name for name, _ in tracer.SPAN_TARGETS if name not in reached] == []
