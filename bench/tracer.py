"""Span tracer that wraps newsnet's public functions from outside the package.

The tracer patches module and class attributes in place and restores them on
`uninstall`. A span records (id, name, start, end, parent, run_id); times are
`time.perf_counter()` seconds. Spans nest because the traced program is
serial: a wrapped call made while another span is open becomes its child.
A call made directly inside an open span of the same name is folded into it,
so `RandomForestClassifier.predict` calling each tree's `predict` is one
`ml.predict` span, not a hundred nested ones.

Counters only count calls. They are used for the hot leaf
`wl_kernel_normalized`, called 240,000 times per threshold sweep of the demo
corpus: a span per call would hold a quarter of a million spans and add its
own cost to the self time of the caller, `wl.similarity`.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# span name -> the attributes the callers look up. Most newsnet modules bind
# their dependencies with `from ... import`, so the caller's module is patched
# (newsnet.features.centralities, not only newsnet.centrality.centralities).
SPAN_TARGETS = (
    ("corpus.load", ("newsnet.corpus:load_corpus",)),
    ("diffusion.build", ("newsnet.features:build_all_networks",)),
    ("diffusion.subsample", ("newsnet.experiments:subsample",)),
    ("centrality.centralities", ("newsnet.features:centralities",)),
    ("distances.flow_matrix", ("newsnet.features:flow_matrix",)),
    ("distances.stats", ("newsnet.features:distance_stats",)),
    ("louvain.global", ("newsnet.features:global_communities",)),
    ("louvain.local", ("newsnet.features:local_communities",)),
    ("triads.enumerate", ("newsnet.features:enumerate_triangles",)),
    ("triads.census", ("newsnet.features:census",)),
    ("susceptibility.fit", ("newsnet.susceptibility:fit_all",)),
    ("wl.signatures", ("newsnet.wl:SimilarityIndex.__init__",)),
    ("wl.similarity", ("newsnet.wl:SimilarityIndex.features",)),
    ("features.build", ("newsnet.features:FeatureExtractor.build",)),
    ("features.extract_matrix", ("newsnet.features:extract_matrix",
                                 "newsnet.ml.crossval:extract_matrix")),
    ("features.extract", ("newsnet.features:extract",)),
    ("ml.fit", ("newsnet.ml.crossval:fit_classifier",)),
    ("ml.predict", ("newsnet.ml.forest:RandomForestClassifier.predict",
                    "newsnet.ml.forest:DecisionTreeClassifier.predict",
                    "newsnet.ml.baselines:KNNClassifier.predict",
                    "newsnet.ml.baselines:GaussianNBClassifier.predict")),
    ("ml.relief", ("newsnet.ml.relief:relief_rank",)),
)
COUNTER_TARGETS = (
    ("wl.kernel", ("newsnet.wl:wl_kernel_normalized",)),
)
# The benchmark opens this span itself around the workload's study call.
DRIVER_SPAN = "experiments.driver"
SPAN_NAMES = tuple(name for name, _ in SPAN_TARGETS) + (DRIVER_SPAN,)
COUNTER_NAMES = tuple(name for name, _ in COUNTER_TARGETS)
MODULES = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str

    def as_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.run_id]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.missing: list = []  # targets that no longer exist in newsnet
        self._open: list = []
        self._undo: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._open[-1] if self._open else None
        if parent is not None and parent.name == name:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), name, time.perf_counter(), None,
                    None if parent is None else parent.id, self.run_id)
        self.spans.append(span)
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, target: str, make) -> None:
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        owner = importlib.import_module(module_name)
        for part in owners:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(target)
            return
        if isinstance(raw, classmethod):
            patched = classmethod(make(raw.__func__))
        else:
            patched = make(raw)
        setattr(owner, attr, patched)
        self._undo.append((owner, attr, raw))

    def install(self) -> "Tracer":
        for name, targets in SPAN_TARGETS:
            for target in targets:
                self._patch(target, functools.partial(self._span_wrapper, name))
        for name, targets in COUNTER_TARGETS:
            for target in targets:
                self._patch(target, functools.partial(self._count_wrapper, name))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def summarize(spans) -> dict:
    """Per span name: total time in the call, call count and self time.

    `spans` are (id, name, start, end, parent, run_id) lists. A span's self
    time is its duration minus the durations of its direct children; spans of
    a serial program nest, so the children never overlap each other.
    """
    child_time: dict = {}
    for _id, _name, start, end, parent, _run in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: {"s": 0.0, "calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
    for span_id, name, start, end, _parent, _run in spans:
        entry = out[name]
        entry["s"] += end - start
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time.get(span_id, 0.0)
    return out


def module_self_times(summary: dict) -> dict:
    """Self time summed over the spans of each newsnet module."""
    out = {module: 0.0 for module in MODULES}
    for name, entry in summary.items():
        out[name.split(".")[0]] += entry["self_s"]
    return out
