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

The values fall in three blocks (FeatureSpec.block), one per invariance level:

    static      38 values, label-free: once per extractor, for all networks
    dynamic     100 values (2-13, 40-47, 49-52, 56-83, 87-134): per training
                fold and threshold, from the spreaders' scores and classes
    similarity  4 values (139-142): per training fold and threshold

Both blocks are computed for all networks at once on a `NodeTable`, the one
layout of the extractor's networks: laid end to end (news sorted, nodes
sorted within a network) with each node's network, graph rank and
engagement count, plus edge endpoint and triangle arrays. Susceptibility
is fit on the full networks' table, and the effective lengths come one per
table edge (`distances.flow_matrix`). The static block
(`FeatureExtractor.static_block`, one (networks, 38) array) reads the
centralities and global communities at the nodes' ranks, takes the
centrality means and medians as below, the edge and triangle totals from
the table, and the distance statistics (over each network's slice of the
lengths) and local communities network by network; the dict loop it
replaced is `static_features` in `tests/oracles.py`, which it equals bit
for bit. Per (fold, threshold) and scoring method, one score and one
class-code vector over the graph ranks (`susceptibility.fit_all`) give every
node's score and class; counts are `np.bincount`s over network × class
keys, the median susceptibility reads a `lexsort` by (network, score), and
the triad counts are one `triads.census`. Every count is an exact integer
and every ratio one float division, so the values equal the per-network
dict loops kept in `tests/oracles.py` bit for bit. The means are the one
sum of floats: `NodeTable.left_sums` takes them as a `cumsum` along a
zero-padded networks × max-nodes matrix, which adds each network's values
left to right in sorted-node order like Python's `sum` on CPython 3.11
(the trailing zeros add exactly). CPython 3.12's `sum` is compensated, so
there the oracle can differ in the last bits.

`extract` writes the three blocks' columns into float64 vectors of 142
values in index order; `extract_matrix` calls it once, on every network's
rows under one training fold, WL similarity included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import susceptibility
from .centrality import MEASURES, centralities
from .corpus import EngagementTable, SocialGraph
from .diffusion import build_all_networks
from .distances import SHARED_FREQUENCY, SHARED_NEWS, distance_stats, flow_matrix
from .louvain import global_communities, local_communities
from .susceptibility import BY_FREQUENCY, BY_NEWS, CLASSES, UNKNOWN
from .triads import TRIAD_CLASSES, Triangles, census, enumerate_triangles
from .util import derive_seed, distinct
from .wl import SimilarityIndex, normalized_gram

MORE_SPREADERS = "more_spreaders"
FARTHER_DISTANCE = "farther_distance"
STRONGER_ENGAGEMENT = "stronger_engagement"
DENSER_NETWORKS = "denser_networks"
SIMILARITY = "similarity"
PATTERNS = (MORE_SPREADERS, FARTHER_DISTANCE, STRONGER_ENGAGEMENT,
            DENSER_NETWORKS, SIMILARITY)

STATIC = "static"
DYNAMIC = "dynamic"

N_FEATURES = 142
_METHOD_TAGS = (("news", BY_NEWS), ("freq", BY_FREQUENCY))
EDGE_CLASSES = ("nn", "ns", "sn", "ss")  # (follower, followee) classes
DELTA_CLASSES = ("delta_pos", "delta_zero", "delta_neg")


@dataclass(frozen=True)
class FeatureSpec:
    index: int  # 1-based
    name: str
    pattern: str
    block: str  # STATIC, DYNAMIC or SIMILARITY


def _build_registry() -> tuple:
    entries = []

    def add(name, pattern, block=STATIC):
        entries.append(FeatureSpec(len(entries) + 1, name, pattern, block))

    add("n_spreaders", MORE_SPREADERS)
    for stem in ("n_normal_spreaders", "n_susceptible_spreaders",
                 "pct_normal_spreaders", "pct_susceptible_spreaders"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", MORE_SPREADERS, DYNAMIC)
    for stem in ("mean_susceptibility", "median_susceptibility"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", MORE_SPREADERS, DYNAMIC)
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
            add(f"{stem}_{tag}", STRONGER_ENGAGEMENT, DYNAMIC)
    add("mean_engagements", STRONGER_ENGAGEMENT)
    for stem in ("mean_normal_engagements", "mean_susceptible_engagements"):
        for tag, _ in _METHOD_TAGS:
            add(f"{stem}_{tag}", STRONGER_ENGAGEMENT, DYNAMIC)
    add("n_edges", DENSER_NETWORKS)
    add("edges_per_spreader", DENSER_NETWORKS)
    add("ego_density", DENSER_NETWORKS)
    for cls in EDGE_CLASSES + DELTA_CLASSES:
        for stem in ("n_edges", "pct_edges"):
            for tag, _ in _METHOD_TAGS:
                add(f"{stem}_{cls}_{tag}", DENSER_NETWORKS, DYNAMIC)
    add("n_triangles", DENSER_NETWORKS)
    add("triangles_per_spreader", DENSER_NETWORKS)
    add("triad_density", DENSER_NETWORKS)
    for stem in ("n_triad", "pct_triad"):
        for cls in TRIAD_CLASSES:
            for tag, _ in _METHOD_TAGS:
                add(f"{stem}_{cls}_{tag}", DENSER_NETWORKS, DYNAMIC)
    add("n_communities_global", DENSER_NETWORKS)
    add("n_communities_local", DENSER_NETWORKS)
    add("community_density_global", DENSER_NETWORKS)
    add("community_density_local", DENSER_NETWORKS)
    for name in ("sim_fake_id", "sim_true_id", "sim_fake_class", "sim_true_class"):
        add(name, SIMILARITY, SIMILARITY)
    assert len(entries) == N_FEATURES
    return tuple(entries)


FEATURE_REGISTRY = _build_registry()
FEATURE_NAMES = tuple(spec.name for spec in FEATURE_REGISTRY)
_NAME_TO_INDEX = {spec.name: spec.index for spec in FEATURE_REGISTRY}
_COLUMNS = {block: np.array([spec.index - 1 for spec in FEATURE_REGISTRY
                             if spec.block == block])
            for block in (STATIC, DYNAMIC, SIMILARITY)}
DYNAMIC_NAMES = tuple(FEATURE_NAMES[i] for i in _COLUMNS[DYNAMIC])
STATIC_NAMES = tuple(FEATURE_NAMES[i] for i in _COLUMNS[STATIC])


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
    X: np.ndarray  # shape (n_news, 142), rows in sorted news order


class NodeTable:
    """A corpus's diffusion networks as node, edge and neighbour arrays.

    Networks are numbered in sorted news order (`order`, with their labels
    in `labels`), nodes in sorted order within a network and networks one
    after another. Node k is the user of graph rank `rank[k]`; it lies in
    network `network[k]` at position `position[k]` and spread it `count[k]`
    times. Edge j runs from node `source[j]` to node `target[j]` in network
    `edge_network[j]`; network t's `n_edges[t]` edges keep the order of its
    `edges`. The nodes adjacent to node k in either direction are
    `neighbours[neighbour_ptr[k]:neighbour_ptr[k + 1]]`, ascending, for WL
    refinement over h iterations and the triangle listing. The triangles and
    the identity-labelled WL Gram matrix depend on the networks (and h) only
    and are built on first use.
    """

    def __init__(self, networks: dict, h: int = 3):
        if h < 0:
            raise ValueError("h must be >= 0")
        self.h = h
        self.order = sorted(networks)
        nets = [networks[news] for news in self.order]
        self.labels = [net.label for net in nets]
        n = len(nets)
        empty = [np.empty(0, dtype=np.int64)]
        self.sizes = np.array([net.n_nodes for net in nets], dtype=np.int64)
        self.network = np.repeat(np.arange(n), self.sizes)
        offsets = np.cumsum(self.sizes) - self.sizes
        self.position = np.arange(self.network.size) - offsets[self.network]
        self.rank = np.concatenate(empty + [net.ranks for net in nets])
        self.count = np.concatenate(empty + [net.counts for net in nets]).astype(np.float64)
        self.engagements = np.bincount(self.network, weights=self.count, minlength=n)
        edges = np.concatenate([np.empty((0, 2), dtype=np.int64)]
                               + [net.edges + offset for net, offset in zip(nets, offsets)])
        self.source, self.target = edges[:, 0].copy(), edges[:, 1].copy()
        self.n_edges = np.array([net.n_edges for net in nets], dtype=np.int64)
        self.edge_network = np.repeat(np.arange(n), self.n_edges)
        size = max(self.network.size, 1)
        rows, self.neighbours = np.divmod(distinct(np.concatenate(
            [self.source * size + self.target, self.target * size + self.source])), size)
        self.neighbour_ptr = np.zeros(self.network.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.network.size), out=self.neighbour_ptr[1:])

    def left_sums(self, values) -> np.ndarray:
        """Each network's node values added left to right, one at a time."""
        padded = np.zeros((self.sizes.size, int(self.sizes.max(initial=0)) + 1))
        padded[self.network, self.position] = values
        return np.cumsum(padded, axis=1)[:, -1]

    @cached_property
    def triangles(self) -> Triangles:
        return enumerate_triangles(self)

    @cached_property
    def identity_gram(self) -> np.ndarray:
        return normalized_gram(self, self.rank)


def _per_network(network, key, width: int, n: int, weights=None) -> np.ndarray:
    """(n, width) sums of `weights` (or counts) per (network, key)."""
    return np.bincount(network * width + key, weights=weights,
                       minlength=n * width).reshape(n, width)


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=np.float64),
                                   np.asarray(den, dtype=np.float64))
    return np.divide(num, den, out=np.zeros(num.shape), where=den != 0)


def _sorted_median(values, network, sizes) -> np.ndarray:
    """The median of each network's values (the midpoint of the two central
    ones for an even count); 0 for an empty network."""
    ranked = np.append(values[np.lexsort((values, network))], 0.0)
    mid = np.cumsum(sizes) - sizes + sizes // 2
    upper = ranked[mid]
    middle = (ranked[mid - 1] + upper) / 2.0  # mid - 1 is -1 only when empty
    return np.where(sizes % 2 == 1, upper, np.where(sizes > 0, middle, 0.0))


def dynamic_features(table: NodeTable, vectors: dict) -> np.ndarray:
    """The dynamic block of every network, (networks, 100) in DYNAMIC_NAMES order.

    `vectors` maps each scoring method to its (scores, class codes) over the
    graph ranks (`susceptibility.fit_all`). Rows follow `table.order`.
    """
    n = len(table.order)
    unknown = CLASSES.index(UNKNOWN)
    kinds = ("normal", "susceptible")  # class codes 0 and 1
    columns: dict = {}

    def put(stems, block):
        for j, stem in enumerate(stems):
            columns[f"{stem}_{tag}"] = block[:, j]

    for tag, method in _METHOD_TAGS:
        scores, codes = (values[table.rank] for values in vectors[method])
        spreaders = _per_network(table.network, codes, len(CLASSES), n)[:, :2]
        engaged = _per_network(table.network, codes, len(CLASSES), n,
                               weights=table.count)[:, :2]
        put([f"n_{k}_spreaders" for k in kinds], spreaders)
        put([f"pct_{k}_spreaders" for k in kinds], _ratio(spreaders, table.sizes[:, None]))
        put(["mean_susceptibility", "median_susceptibility"],
            np.column_stack([_ratio(table.left_sums(scores), table.sizes),
                             _sorted_median(scores, table.network, table.sizes)]))
        put([f"n_{k}_engagements" for k in kinds], engaged)
        put([f"pct_{k}_engagements" for k in kinds],
            _ratio(engaged, table.engagements[:, None]))
        put([f"mean_{k}_engagements" for k in kinds], _ratio(engaged, spreaders))

        follower, followee = codes[table.source], codes[table.target]
        known = (follower != unknown) & (followee != unknown)
        ego = _per_network(table.edge_network[known], 2 * follower[known] + followee[known],
                           len(EDGE_CLASSES), n)
        # sign +1, 0, -1 -> delta_pos, delta_zero, delta_neg
        sign = np.sign(scores[table.source] - scores[table.target]).astype(np.int64)
        delta = _per_network(table.edge_network, 1 - sign, len(DELTA_CLASSES), n)
        for classes, counts in ((EDGE_CLASSES, ego), (DELTA_CLASSES, delta)):
            put([f"n_edges_{cls}" for cls in classes], counts)
            put([f"pct_edges_{cls}" for cls in classes], _ratio(counts, table.n_edges[:, None]))

        triads = census(table.triangles, codes)
        put([f"n_triad_{cls}" for cls in TRIAD_CLASSES], triads)
        put([f"pct_triad_{cls}" for cls in TRIAD_CLASSES],
            _ratio(triads, triads.sum(axis=1, keepdims=True)))
    return np.column_stack([columns[name] for name in DYNAMIC_NAMES]).astype(np.float64)


class FeatureExtractor:
    """Feature assembly over one corpus.

    Label-independent inputs (centralities, effective lengths, communities,
    the node table with its triangles and identity-labelled WL Gram matrix,
    and the static block) are computed once and cached; susceptibility-
    dependent features are recomputed for every training fold and threshold.
    `node_table` numbers the networks' nodes once, and `flows` maps each
    flow definition to one effective length per table edge; both are built
    here, as the lengths encode which stories an edge appears in. `cents`
    maps each centrality measure, and `global_comm` holds the communities,
    as arrays over the graph ranks. The susceptibility scores are fit on
    `history`, the node table of the full networks, even when the extractor
    holds subsampled ones.
    """

    def __init__(self, graph: SocialGraph, table: EngagementTable, networks: dict,
                 cents: dict, global_comm: np.ndarray, h: int = 3, seed: int = 0,
                 history: NodeTable | None = None):
        self.graph = graph
        self.table = table
        self.networks = networks
        self.centralities = cents
        self.global_comm = global_comm
        self.h = h
        self.seed = seed
        self.node_table = NodeTable(networks, h)
        self.flows = flow_matrix(graph, self.node_table)
        self.history = self.node_table if history is None else history

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
                                self.global_comm, h=self.h, seed=self.seed,
                                history=self.history)

    # ---- label-independent block ----

    @cached_property
    def static_block(self) -> np.ndarray:
        """The static block of every network, (networks, 38) in STATIC_NAMES order.

        Rows follow `node_table.order`. Per-network means are `left_sums`
        and medians read a `lexsort`, as in `dynamic_features`; the distance
        statistics and the local community counts are computed network by
        network.
        """
        table = self.node_table
        sizes = table.sizes
        columns = {"n_spreaders": sizes.astype(np.float64)}
        for measure in MEASURES:
            values = self.centralities[measure][table.rank]
            columns[f"mean_{measure}"] = _ratio(table.left_sums(values), sizes)
            columns[f"median_{measure}"] = _sorted_median(values, table.network, sizes)

        nets = [self.networks[news] for news in table.order]
        cuts = np.cumsum(table.n_edges)
        for prefix, lengths in (("geodesic_{}", [None] * len(nets)),
                                ("effective_{}_news", np.split(self.flows[SHARED_NEWS], cuts)),
                                ("effective_{}_freq",
                                 np.split(self.flows[SHARED_FREQUENCY], cuts))):
            stats = [distance_stats(net, step) for net, step in zip(nets, lengths)]
            for stat, field in (("max", "maximum"), ("mean", "mean"), ("median", "median")):
                columns[prefix.format(stat)] = np.array([getattr(st, field) for st in stats],
                                                        dtype=np.float64)

        columns["total_engagements"] = table.engagements
        columns["mean_engagements"] = _ratio(table.engagements, sizes)
        columns["n_edges"] = table.n_edges.astype(np.float64)
        columns["edges_per_spreader"] = _ratio(table.n_edges, sizes)
        columns["ego_density"] = _ratio(table.n_edges, sizes * (sizes - 1) / 2.0)
        total = table.triangles.total
        columns["n_triangles"] = total.astype(np.float64)
        columns["triangles_per_spreader"] = _ratio(total, sizes)
        columns["triad_density"] = _ratio(total, np.where(
            sizes >= 3, sizes * (sizes - 1) * (sizes - 2) / 6.0, 0.0))

        community = self.global_comm[table.rank]
        width = int(community.max(initial=0)) + 1
        n_global = np.bincount(distinct(table.network * width + community) // width,
                               minlength=sizes.size)
        n_local = np.array([local_communities(net, derive_seed(self.seed, "louvain_local",
                                                               news)) if net.n_nodes else 0
                            for news, net in zip(table.order, nets)], dtype=np.int64)
        for scope, count in (("global", n_global), ("local", n_local)):
            columns[f"n_communities_{scope}"] = count.astype(np.float64)
            columns[f"community_density_{scope}"] = _ratio(count, sizes)
        return np.column_stack([columns[name] for name in STATIC_NAMES])


def extract(static, dynamic, references) -> np.ndarray:
    """Assemble full 142-value feature vectors, in index order.

    `static`, `dynamic` and `references` are rows of the static block
    (STATIC_NAMES order), of `dynamic_features` (DYNAMIC_NAMES order) and of
    `SimilarityIndex.features`: one network's rows give its vector, every
    network's stacked rows a matrix of one vector per row.
    """
    X = np.empty(np.shape(static)[:-1] + (N_FEATURES,))
    X[..., _COLUMNS[STATIC]] = static
    X[..., _COLUMNS[DYNAMIC]] = dynamic
    X[..., _COLUMNS[SIMILARITY]] = references
    return X


def extract_matrix(extractor: FeatureExtractor, training_news,
                   theta: float) -> FeatureMatrix:
    """Leakage-safe feature matrix for the whole corpus under one training fold.

    Susceptibility scores and WL reference sets are fit on `training_news`
    only; test-fold labels never influence any value.
    """
    vectors = susceptibility.fit_all(extractor.history, extractor.graph.n_nodes,
                                     training_news, theta)
    table = extractor.node_table
    classes = vectors[BY_NEWS][1][table.rank]
    X = extract(extractor.static_block, dynamic_features(table, vectors),
                SimilarityIndex(table, training_news, classes).features())
    return FeatureMatrix(news_ids=tuple(table.order), labels=tuple(table.labels), X=X)
