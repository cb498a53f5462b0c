"""Assembly of the ordered 142-feature vector for each diffusion network.

The index contract is frozen (1-based):

    1       spreader count
    2-9     normal / susceptible spreader counts and percentages
    10-13   mean / median spreader susceptibility
    14-29   mean then median spreader influence, 8 centrality measures
    30-32   geodesic distance max / mean / median
    33-38   effective distance max / mean / median, two flow definitions
    39-52   engagement totals, class engagement counts/percentages and means
    53-55   edge count, edges per spreader, ego density
    56-71   counts / percentages of n->n, n->s, s->n, s->s follow edges
    72-83   counts / percentages of edges by susceptibility-difference sign
    84-86   triangle count, triangles per spreader, triad density
    87-134  counts then percentages of the 12 labeled triad classes
    135-138 community counts and densities, global and local scope
    139-142 WL-kernel similarity to training fake / true references

Wherever a feature exists per scoring method, the by_news value immediately
precedes the by_frequency value. All 0/0 ratios are 0 so every value is
finite. Extraction is pure: identical inputs give bit-identical vectors.

`extract` returns one network's vector as a plain 142-tuple in index order;
`extract_matrix` stacks the vectors of every network under one training fold,
WL similarity included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import susceptibility
from .centrality import MEASURES, CentralityScores, centralities
from .corpus import EngagementTable, SocialGraph
from .diffusion import DiffusionNetwork, build_all_networks
from .distances import SHARED_FREQUENCY, SHARED_NEWS, distance_stats, flow_matrix
from .louvain import global_communities, local_communities
from .susceptibility import (BY_FREQUENCY, BY_NEWS, METHODS, NORMAL, SUSCEPTIBLE,
                             UNKNOWN, SusceptibilityModel)
from .triads import TRIAD_CLASSES, census, enumerate_triangles, triad_features
from .util import derive_seed, median, safe_ratio, write_csv
from .wl import SimilarityIndex, WLNetworks

MORE_SPREADERS = "more_spreaders"
FARTHER_DISTANCE = "farther_distance"
STRONGER_ENGAGEMENT = "stronger_engagement"
DENSER_NETWORKS = "denser_networks"
SIMILARITY = "similarity"
PATTERNS = (MORE_SPREADERS, FARTHER_DISTANCE, STRONGER_ENGAGEMENT,
            DENSER_NETWORKS, SIMILARITY)

N_FEATURES = 142
_METHOD_TAGS = (("news", BY_NEWS), ("freq", BY_FREQUENCY))


@dataclass(frozen=True)
class FeatureSpec:
    index: int  # 1-based
    name: str
    pattern: str


def _build_registry() -> tuple:
    entries = []

    def add(name, pattern):
        entries.append(FeatureSpec(len(entries) + 1, name, pattern))

    add("n_spreaders", MORE_SPREADERS)
    for stem in ("n_normal_spreaders", "n_susceptible_spreaders",
                 "pct_normal_spreaders", "pct_susceptible_spreaders"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", MORE_SPREADERS)
    for stem in ("mean_susceptibility", "median_susceptibility"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", MORE_SPREADERS)
    for agg in ("mean", "median"):
        for measure in MEASURES:
            add(f"{agg}_{measure}", MORE_SPREADERS)
    for stat in ("max", "mean", "median"):
        add(f"geodesic_{stat}", FARTHER_DISTANCE)
    for stat in ("max", "mean", "median"):
        for tag, _ in _METHOD_TAGS:
            add(f"effective_{stat}_{tag}", FARTHER_DISTANCE)
    add("total_engagements", STRONGER_ENGAGEMENT)
    for stem in ("n_normal_engagements", "n_susceptible_engagements",
                 "pct_normal_engagements", "pct_susceptible_engagements"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", STRONGER_ENGAGEMENT)
    add("mean_engagements", STRONGER_ENGAGEMENT)
    for stem in ("mean_normal_engagements", "mean_susceptible_engagements"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", STRONGER_ENGAGEMENT)
    add("n_edges", DENSER_NETWORKS)
    add("edges_per_spreader", DENSER_NETWORKS)
    add("ego_density", DENSER_NETWORKS)
    for cls in ("nn", "ns", "sn", "ss"):
        for stem in ("n_edges", "pct_edges"):
            for tag, _ in _METHOD_TAGS:
                add(f"{stem}_{cls}_{tag}", DENSER_NETWORKS)
    for cls in ("delta_pos", "delta_zero", "delta_neg"):
        for stem in ("n_edges", "pct_edges"):
            for tag, _ in _METHOD_TAGS:
                add(f"{stem}_{cls}_{tag}", DENSER_NETWORKS)
    add("n_triangles", DENSER_NETWORKS)
    add("triangles_per_spreader", DENSER_NETWORKS)
    add("triad_density", DENSER_NETWORKS)
    for cls in TRIAD_CLASSES:
        for tag, _ in _METHOD_TAGS:
            add(f"n_triad_{cls}_{tag}", DENSER_NETWORKS)
    for cls in TRIAD_CLASSES:
        for tag, _ in _METHOD_TAGS:
            add(f"pct_triad_{cls}_{tag}", DENSER_NETWORKS)
    add("n_communities_global", DENSER_NETWORKS)
    add("n_communities_local", DENSER_NETWORKS)
    add("community_density_global", DENSER_NETWORKS)
    add("community_density_local", DENSER_NETWORKS)
    for name in ("sim_fake_id", "sim_true_id", "sim_fake_class", "sim_true_class"):
        add(name, SIMILARITY)
    assert len(entries) == N_FEATURES
    return tuple(entries)


FEATURE_REGISTRY = _build_registry()
FEATURE_NAMES = tuple(spec.name for spec in FEATURE_REGISTRY)
_NAME_TO_INDEX = {spec.name: spec.index for spec in FEATURE_REGISTRY}


def feature_index(name: str) -> int:
    return _NAME_TO_INDEX[name]


def pattern_mask(patterns) -> list:
    """Sorted 1-based feature indices covered by a set of pattern names."""
    chosen = set(patterns)
    if not chosen:
        raise ValueError("pattern subset is empty")
    unknown = chosen - set(PATTERNS)
    if unknown:
        raise ValueError(f"unknown pattern(s): {sorted(unknown)}")
    return [spec.index for spec in FEATURE_REGISTRY if spec.pattern in chosen]


def registry_json() -> list:
    return [{"index": spec.index, "name": spec.name, "pattern": spec.pattern}
            for spec in FEATURE_REGISTRY]


@dataclass(frozen=True)
class FeatureMatrix:
    news_ids: tuple
    labels: tuple
    X: np.ndarray  # shape (n_news, 142)

    @cached_property
    def _row_index(self) -> dict:
        return {news: i for i, news in enumerate(self.news_ids)}

    def row(self, news_id) -> np.ndarray:
        return self.X[self._row_index[news_id]]

    def rows_for(self, news_ids) -> tuple:
        idx = [self._row_index[n] for n in news_ids]
        return self.X[idx], [self.labels[i] for i in idx]

    def write_csv(self, path) -> None:
        header = ["news_id", "label"] + [f"f{i:03d}" for i in range(1, N_FEATURES + 1)]
        rows = [[news, label] + [float(v) for v in self.X[i]]
                for i, (news, label) in enumerate(zip(self.news_ids, self.labels))]
        write_csv(path, header, rows)


def _class_maps(network: DiffusionNetwork, model: SusceptibilityModel):
    nodes = network.sorted_nodes()
    classes = {v: model.classify(v) for v in nodes}
    scores = {v: model.score(v) for v in nodes}
    return classes, scores


class FeatureExtractor:
    """Feature assembly over one corpus.

    Label-independent inputs (centralities, flow matrices, communities,
    triangle enumeration, distance statistics, the WL node table and its
    identity-labelled Gram matrix) are computed once and cached;
    susceptibility-dependent features are recomputed for every training fold
    and threshold. The flow matrices are built here from the graph and the
    networks: they encode which news stories an edge appears in, so they
    change with the networks.
    """

    def __init__(self, graph: SocialGraph, table: EngagementTable, networks: dict,
                 cents: CentralityScores, global_comm, h: int = 3, seed: int = 0):
        self.graph = graph
        self.table = table
        self.networks = networks
        self.centralities = cents
        nets = [networks[n] for n in sorted(networks)]
        self.flows = {d: flow_matrix(graph, nets, d)  # definition -> FlowMatrix
                      for d in (SHARED_NEWS, SHARED_FREQUENCY)}
        self.global_comm = global_comm
        self.h = h
        self.seed = seed
        self._static: dict = {}
        self._triangles: dict = {}

    @classmethod
    def build(cls, graph: SocialGraph, table: EngagementTable,
              h: int = 3, seed: int = 0) -> "FeatureExtractor":
        networks = build_all_networks(graph, table)
        cents = centralities(graph)
        global_comm = global_communities(graph, derive_seed(seed, "louvain_global"))
        return cls(graph, table, networks, cents, global_comm, h=h, seed=seed)

    def with_networks(self, networks: dict) -> "FeatureExtractor":
        """Same corpus and global inputs, different (e.g. subsampled) networks."""
        return FeatureExtractor(self.graph, self.table, networks, self.centralities,
                                self.global_comm, h=self.h, seed=self.seed)

    def triangle_index(self, news_id):
        if news_id not in self._triangles:
            self._triangles[news_id] = enumerate_triangles(self.networks[news_id])
        return self._triangles[news_id]

    # ---- label-independent block ----

    @cached_property
    def wl_networks(self) -> WLNetworks:
        """The networks' undirected adjacency over one node numbering."""
        return WLNetworks(self.networks, self.h)

    def _static_features(self, news_id) -> dict:
        if news_id in self._static:
            return self._static[news_id]
        net = self.networks[news_id]
        out: dict = {}
        n = net.n_nodes
        out["n_spreaders"] = float(n)

        for agg in ("mean", "median"):
            for measure in MEASURES:
                values = [self.centralities.of(measure)[v] for v in net.sorted_nodes()]
                if agg == "mean":
                    out[f"mean_{measure}"] = sum(values) / n if n else 0.0
                else:
                    out[f"median_{measure}"] = median(values)

        geo = distance_stats(net)
        out["geodesic_max"] = geo.maximum
        out["geodesic_mean"] = geo.mean
        out["geodesic_median"] = geo.median
        for tag, definition in (("news", SHARED_NEWS), ("freq", SHARED_FREQUENCY)):
            eff = distance_stats(net, self.flows[definition])
            out[f"effective_max_{tag}"] = eff.maximum
            out[f"effective_mean_{tag}"] = eff.mean
            out[f"effective_median_{tag}"] = eff.median

        total_t = float(sum(net.counts.values()))
        out["total_engagements"] = total_t
        out["mean_engagements"] = safe_ratio(total_t, n)

        e = net.n_edges
        out["n_edges"] = float(e)
        out["edges_per_spreader"] = safe_ratio(e, n)
        pairs = n * (n - 1) / 2.0
        out["ego_density"] = safe_ratio(e, pairs)

        tri = self.triangle_index(news_id)
        possible = n * (n - 1) * (n - 2) / 6.0 if n >= 3 else 0.0
        out["n_triangles"] = float(tri.total)
        out["triangles_per_spreader"] = safe_ratio(tri.total, n)
        out["triad_density"] = safe_ratio(tri.total, possible)

        if n:
            n_global = len({self.global_comm.communities[v] for v in net.nodes})
            local = local_communities(net, derive_seed(self.seed, "louvain_local",
                                                       news_id))
            n_local = local.n_communities
        else:
            n_global = n_local = 0
        out["n_communities_global"] = float(n_global)
        out["n_communities_local"] = float(n_local)
        out["community_density_global"] = safe_ratio(n_global, n)
        out["community_density_local"] = safe_ratio(n_local, n)

        self._static[news_id] = out
        return out

    # ---- susceptibility-dependent block ----

    def _dynamic_features(self, news_id, models: dict) -> dict:
        net = self.networks[news_id]
        tri = self.triangle_index(news_id)
        n = net.n_nodes
        total_t = float(sum(net.counts.values()))
        n_edges = net.n_edges
        out: dict = {}
        for tag, method in _METHOD_TAGS:
            model = models[method]
            classes, scores = _class_maps(net, model)
            normal = [v for v in net.sorted_nodes() if classes[v] == NORMAL]
            susceptible = [v for v in net.sorted_nodes() if classes[v] == SUSCEPTIBLE]
            out[f"n_normal_spreaders_{tag}"] = float(len(normal))
            out[f"n_susceptible_spreaders_{tag}"] = float(len(susceptible))
            out[f"pct_normal_spreaders_{tag}"] = safe_ratio(len(normal), n)
            out[f"pct_susceptible_spreaders_{tag}"] = safe_ratio(len(susceptible), n)
            all_scores = list(scores.values())
            out[f"mean_susceptibility_{tag}"] = (sum(all_scores) / n) if n else 0.0
            out[f"median_susceptibility_{tag}"] = median(all_scores)

            t_normal = float(sum(net.counts[v] for v in normal))
            t_susc = float(sum(net.counts[v] for v in susceptible))
            out[f"n_normal_engagements_{tag}"] = t_normal
            out[f"n_susceptible_engagements_{tag}"] = t_susc
            out[f"pct_normal_engagements_{tag}"] = safe_ratio(t_normal, total_t)
            out[f"pct_susceptible_engagements_{tag}"] = safe_ratio(t_susc, total_t)
            out[f"mean_normal_engagements_{tag}"] = safe_ratio(t_normal, len(normal))
            out[f"mean_susceptible_engagements_{tag}"] = safe_ratio(t_susc,
                                                                    len(susceptible))

            ego = {"nn": 0, "ns": 0, "sn": 0, "ss": 0}
            delta = {"delta_pos": 0, "delta_zero": 0, "delta_neg": 0}
            for u, v in net.edges:
                cu, cv = classes[u], classes[v]
                if cu != UNKNOWN and cv != UNKNOWN:
                    key = ("n" if cu == NORMAL else "s") + ("n" if cv == NORMAL else "s")
                    ego[key] += 1
                diff = scores[u] - scores[v]
                if diff > 0:
                    delta["delta_pos"] += 1
                elif diff < 0:
                    delta["delta_neg"] += 1
                else:
                    delta["delta_zero"] += 1
            for cls, count in ego.items():
                out[f"n_edges_{cls}_{tag}"] = float(count)
                out[f"pct_edges_{cls}_{tag}"] = safe_ratio(count, n_edges)
            for cls, count in delta.items():
                out[f"n_edges_{cls}_{tag}"] = float(count)
                out[f"pct_edges_{cls}_{tag}"] = safe_ratio(count, n_edges)

            tri_feats = triad_features(census(net, model, index=tri))
            for cls in TRIAD_CLASSES:
                out[f"n_triad_{cls}_{tag}"] = tri_feats[f"n_triad_{cls}"]
                out[f"pct_triad_{cls}_{tag}"] = tri_feats[f"pct_triad_{cls}"]
        return out


def extract(network: DiffusionNetwork, models: dict, extractor: FeatureExtractor,
            references: tuple) -> tuple:
    """Assemble one network's full 142-value feature vector, in index order.

    `models` maps both method names to fitted SusceptibilityModels;
    `references` is the network's 4-tuple of WL similarity values
    (SimilarityIndex.features).
    """
    missing = [m for m in METHODS if m not in models]
    if missing:
        raise ValueError(f"feature contract requires models for {missing}")
    named = {}
    named.update(extractor._static_features(network.news_id))
    named.update(extractor._dynamic_features(network.news_id, models))
    for name, value in zip(("sim_fake_id", "sim_true_id",
                            "sim_fake_class", "sim_true_class"), references):
        named[name] = float(value)
    return tuple(named[name] for name in FEATURE_NAMES)


def extract_matrix(extractor: FeatureExtractor, training_news,
                   theta: float) -> FeatureMatrix:
    """Leakage-safe feature matrix for the whole corpus under one training fold.

    Susceptibility models and WL reference sets are fit on `training_news`
    only; test-fold labels never influence any value.
    """
    models = susceptibility.fit_all(extractor.table, training_news, theta)
    sim_index = SimilarityIndex(extractor.wl_networks, training_news, models[BY_NEWS])
    news_ids = sorted(extractor.networks)
    X = np.array([extract(extractor.networks[news], models, extractor,
                          sim_index.features(news)) for news in news_ids],
                 dtype=np.float64)
    labels = tuple(extractor.networks[news].label for news in news_ids)
    return FeatureMatrix(news_ids=tuple(news_ids), labels=labels, X=X)
