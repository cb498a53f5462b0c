"""Independent brute-force oracles used to cross-check the fast implementations.

Everything here is written from the definitions: exhaustive triple loops,
Floyd-Warshall with matrix-power path counts, eigendecompositions, exhaustive
set partitions, the pure-Python centrality loops the array code in
`newsnet.centrality` replaced, the per-source BFS and heap Dijkstra the
all-sources array relaxation in `newsnet.distances` replaced, the WL
signatures by string relabelling through one shared dictionary and the
pairwise similarity loops over them that the integer refinement and Gram
matrices in `newsnet.wl` replaced, and the recursive per-node tree growth the
presorted batched grower in `newsnet.ml.forest` replaced. Apart from the
pairwise WL kernel and `newsnet.util.median`, these paths share no code with
the package internals.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import DiffusionNetwork
from newsnet.distances import DistanceStats
from newsnet.susceptibility import NORMAL, SUSCEPTIBLE
from newsnet.util import derive_seed, median
from newsnet.wl import WLSignature, wl_kernel_normalized

IDENTITY = "identity"
SUSCEPTIBILITY_CLASS = "susceptibility_class"
LABELING_SCHEMES = (IDENTITY, SUSCEPTIBILITY_CLASS)


class WLDictionary:
    """Shared label-compression table; assigns dense ids in first-seen order."""

    def __init__(self):
        self._ids: dict = {}

    def encode(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self._ids)
        return self._ids[label]


@dataclass(frozen=True)
class LabeledGraph:
    nodes: tuple
    adjacency: dict  # node -> tuple of neighbors (undirected, sorted)
    labels: dict  # node -> label string


def labeled_graph(network: DiffusionNetwork, scheme: str, model=None) -> LabeledGraph:
    if scheme not in LABELING_SCHEMES:
        raise ValueError(f"scheme must be one of {LABELING_SCHEMES}, got {scheme!r}")
    und = {v: set() for v in network.nodes}
    for u, v in network.edges:
        und[u].add(v)
        und[v].add(u)
    nodes = tuple(network.sorted_nodes())
    if scheme == IDENTITY:
        labels = {v: v for v in nodes}
    else:
        if model is None:
            raise ValueError("susceptibility_class labeling requires a model")
        labels = {v: model.classify(v) for v in nodes}
    return LabeledGraph(
        nodes=nodes,
        adjacency={v: tuple(sorted(und[v])) for v in nodes},
        labels=labels,
    )


def wl_signature(graph: LabeledGraph, h: int, dictionary: WLDictionary) -> WLSignature:
    if h < 0:
        raise ValueError("h must be >= 0")
    current = {v: dictionary.encode(graph.labels[v]) for v in graph.nodes}
    histograms = [Counter(current.values())]
    for _ in range(h):
        relabeled = {}
        for v in graph.nodes:
            neighborhood = ",".join(str(c) for c in
                                    sorted(current[u] for u in graph.adjacency[v]))
            relabeled[v] = dictionary.encode(f"{current[v]}|{neighborhood}")
        current = relabeled
        histograms.append(Counter(current.values()))
    return WLSignature(h=h, dictionary=dictionary, histograms=tuple(histograms))


def string_normalized_gram(networks: dict, scheme: str, model=None, h: int = 3):
    """wl_kernel_normalized between the string signatures of every pair of
    networks, in sorted news order, all signatures sharing one dictionary."""
    dictionary = WLDictionary()
    sigs = [wl_signature(labeled_graph(networks[news], scheme, model), h, dictionary)
            for news in sorted(networks)]
    return np.array([[wl_kernel_normalized(a, b) for b in sigs]
                     for a in sigs]).reshape(len(sigs), len(sigs))


def random_corpus(seed):
    """Seeded corpus with <= 40 users and <= 20 labeled news stories."""
    rng = random.Random(seed)
    n_users = rng.randint(5, 40)
    users = [f"u{i:02d}" for i in range(n_users)]
    p = rng.uniform(0.05, 0.3)
    edges = set()
    for u in users:
        for v in users:
            if u != v and rng.random() < p:
                edges.add((u, v))
    graph = SocialGraph.from_edges(edges, nodes=users)

    n_news = rng.randint(2, 20)
    labels = {}
    records = {}
    for i in range(n_news):
        news = f"n{i:02d}"
        # guarantee both labels exist
        labels[news] = "fake" if i == 0 else "true" if i == 1 else rng.choice(["fake", "true"])
        spreaders = rng.sample(users, rng.randint(1, min(12, n_users)))
        for u in spreaders:
            records[(news, u)] = rng.randint(1, 4)
    table = EngagementTable.from_records(records, labels)
    return graph, table


def brute_induced_edges(graph: SocialGraph, spreaders) -> set:
    spreaders = set(spreaders)
    return {(u, v) for (u, v) in graph.edges if u in spreaders and v in spreaders}


def brute_flow(graph: SocialGraph, networks, definition) -> dict:
    flows = {}
    for edge in graph.edges:
        total = 0.0
        for net in networks:
            if edge in net.edges:
                if definition == "shared_news":
                    total += 1.0
                else:
                    total += min(net.counts[edge[0]], net.counts[edge[1]])
        if total > 0:
            flows[edge] = total
    return flows


def brute_census(network, model) -> dict:
    """Triangle classification by direct enumeration of all node triples."""
    edges = network.edges
    nodes = sorted(network.nodes)
    counts = {"total": 0, "reciprocal": 0, "unknown": 0}

    def connected(a, b):
        return (a, b) in edges or (b, a) in edges

    for a, b, c in combinations(nodes, 3):
        if not (connected(a, b) and connected(b, c) and connected(a, c)):
            continue
        counts["total"] += 1
        if any((x, y) in edges and (y, x) in edges
               for x, y in ((a, b), (b, c), (a, c))):
            counts["reciprocal"] += 1
            continue
        labels = {n: model.classify(n) for n in (a, b, c)}
        if any(lab not in (NORMAL, SUSCEPTIBLE) for lab in labels.values()):
            counts["unknown"] += 1
            continue
        out_deg = {n: sum(1 for m in (a, b, c) if m != n and (n, m) in edges)
                   for n in (a, b, c)}
        letter = {n: "n" if labels[n] == NORMAL else "s" for n in (a, b, c)}
        if sorted(out_deg.values()) == [1, 1, 1]:
            key = "c_" + "".join(sorted(letter[n] for n in (a, b, c)))
        else:
            source = [n for n in (a, b, c) if out_deg[n] == 2][0]
            sink = [n for n in (a, b, c) if out_deg[n] == 0][0]
            middle = [n for n in (a, b, c) if n not in (source, sink)][0]
            key = "t_" + letter[source] + letter[middle] + letter[sink]
        counts[key] = counts.get(key, 0) + 1
    return counts


def brute_ego_delta(network, model) -> dict:
    """Edge partitions by endpoint class and by score difference sign."""
    out = {"nn": 0, "ns": 0, "sn": 0, "ss": 0, "unknown_endpoint": 0,
           "delta_pos": 0, "delta_zero": 0, "delta_neg": 0}
    for u, v in network.edges:
        cu, cv = model.classify(u), model.classify(v)
        if cu in (NORMAL, SUSCEPTIBLE) and cv in (NORMAL, SUSCEPTIBLE):
            key = ("n" if cu == NORMAL else "s") + ("n" if cv == NORMAL else "s")
            out[key] += 1
        else:
            out["unknown_endpoint"] += 1
        diff = model.score(u) - model.score(v)
        if diff > 0:
            out["delta_pos"] += 1
        elif diff < 0:
            out["delta_neg"] += 1
        else:
            out["delta_zero"] += 1
    return out


def dense_distances(nodes, edges, weights=None) -> np.ndarray:
    """Floyd-Warshall; unit weights unless an edge-weight mapping is given."""
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v in edges:
        w = 1.0 if weights is None else weights[(u, v)]
        d[index[u], index[v]] = min(d[index[u], index[v]], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d


def _geodesic_pairs(nodes, adjacency):
    for source in nodes:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for target, d in dist.items():
            if target != source:
                yield float(d)


def _dijkstra_pairs(nodes, weighted_adjacency):
    for source in nodes:
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            for v, w in weighted_adjacency[u]:
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for target, d in dist.items():
            if target != source:
                yield d


def _python_effective_distance(flow, i, j) -> float:
    f = flow.flow(i, j)
    if f <= 0.0:
        return math.inf
    return 1.0 - math.log(f / flow.inflow[j])


def python_distance_stats(network, flow=None) -> DistanceStats:
    """One BFS (geodesic) or heap Dijkstra (effective) per source, Python `sum`."""
    nodes = network.sorted_nodes()
    adjacency = {v: [] for v in nodes}
    if flow is None:
        for u, v in sorted(network.edges):
            adjacency[u].append(v)
        values = list(_geodesic_pairs(nodes, adjacency))
    else:
        for u, v in sorted(network.edges):
            w = _python_effective_distance(flow, u, v)
            if math.isfinite(w):
                adjacency[u].append((v, w))
        values = list(_dijkstra_pairs(nodes, adjacency))
    if not values:
        return DistanceStats(maximum=0.0, mean=0.0, median=0.0)
    return DistanceStats(
        maximum=max(values),
        mean=sum(values) / len(values),
        median=median(values),
    )


def dense_closeness(nodes, edges, direction) -> dict:
    d = dense_distances(nodes, edges)
    if direction == "in":
        d = d.T  # row v = distances of others *to* v
    out = {}
    for i, v in enumerate(nodes):
        finite = np.isfinite(d[i]) & (np.arange(len(nodes)) != i)
        total = d[i][finite].sum()
        out[v] = float(finite.sum() / total) if total > 0 else 0.0
    return out


def dense_betweenness(nodes, edges) -> dict:
    """Shortest-path counts from adjacency-matrix powers, fully vectorized.

    Walks of length dist(s, t) are exactly the shortest s-t paths, so
    sigma(s, t) = (A^dist)[s, t]. float64 stays exact while counts < 2^52
    (guarded); pair dependencies accumulate via the Brandes identity.
    """
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    d = dense_distances(nodes, edges)
    finite_d = d[np.isfinite(d)]
    diameter = int(finite_d.max()) if finite_d.size else 0
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[index[u], index[v]] = 1.0
    power = np.eye(n)
    sigma = np.zeros((n, n))
    for length in range(diameter + 1):
        take = np.isfinite(d) & (d == length)
        sigma[take] = power[take]
        if length < diameter:
            power = power @ adj
    assert sigma.max() < 2 ** 52, "path counts exceed exact float range"

    off_diag = ~np.eye(n, dtype=bool)
    reachable = np.isfinite(d) & off_diag
    safe_sigma = np.where(sigma > 0, sigma, 1.0)
    bc = {v: 0.0 for v in nodes}
    for v in range(n):
        on_path = reachable & (d[:, v:v + 1] + d[v:v + 1, :] == d)
        on_path[v, :] = False
        on_path[:, v] = False
        contrib = np.outer(sigma[:, v], sigma[v, :]) / safe_sigma
        bc[nodes[v]] = float(contrib[on_path].sum())
    return bc


def _bfs_distances(start, neighbors) -> dict:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def python_closeness(nodes, neighbors) -> dict:
    out = {}
    for v in nodes:
        dist = _bfs_distances(v, neighbors)
        reachable = len(dist) - 1
        total = sum(dist.values())
        out[v] = reachable / total if total > 0 else 0.0
    return out


def python_brandes(nodes, out_neighbors) -> dict:
    # Brandes (2001) with integer sigma and reverse-order dependency passes.
    bc = {v: 0.0 for v in nodes}
    for s in nodes:
        stack = []
        preds = {v: [] for v in nodes}
        sigma = {v: 0 for v in nodes}
        dist = {v: -1 for v in nodes}
        sigma[s] = 1
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            stack.append(u)
            for w in sorted(out_neighbors[u]):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc


def similarity_features(target: DiffusionNetwork, training_fake, training_true,
                        model, h: int = 3) -> tuple:
    """Mean normalized kernel of the target to each training reference class.

    Returns (fake_identity, true_identity, fake_class, true_class), each in
    [0, 1]; a feature is 0 when its reference set is empty.
    """
    fakes = sorted(training_fake, key=lambda n: n.news_id)
    trues = sorted(training_true, key=lambda n: n.news_id)
    values = []
    for scheme in (IDENTITY, SUSCEPTIBILITY_CLASS):
        dictionary = WLDictionary()
        sig_target = wl_signature(labeled_graph(target, scheme, model), h, dictionary)
        sims = {}
        for name, refs in (("fake", fakes), ("true", trues)):
            if not refs:
                sims[name] = 0.0
                continue
            total = 0.0
            for ref in refs:
                sig_ref = wl_signature(labeled_graph(ref, scheme, model), h, dictionary)
                total += wl_kernel_normalized(sig_target, sig_ref)
            sims[name] = total / len(refs)
        values.extend((sims["fake"], sims["true"]))
    return tuple(values)


class PairwiseSimilarityIndex:
    """Batch form of similarity_features for one training fold.

    Signatures for every network are computed once per labeling scheme with
    one shared dictionary, then each target is compared against the training
    references by label.
    """

    def __init__(self, networks: dict, training_news, model, h: int = 3):
        training = set(training_news)
        self.h = h
        order = sorted(networks)
        self._sigs = {}
        for scheme in LABELING_SCHEMES:
            dictionary = WLDictionary()
            self._sigs[scheme] = {
                news: wl_signature(labeled_graph(networks[news], scheme, model),
                                   h, dictionary)
                for news in order
            }
        self._fake_refs = [n for n in order
                           if n in training and networks[n].label == "fake"]
        self._true_refs = [n for n in order
                           if n in training and networks[n].label == "true"]

    def features(self, news_id) -> tuple:
        values = []
        for scheme in LABELING_SCHEMES:
            sigs = self._sigs[scheme]
            target = sigs[news_id]
            for refs in (self._fake_refs, self._true_refs):
                if not refs:
                    values.append(0.0)
                    continue
                total = sum(wl_kernel_normalized(target, sigs[r]) for r in refs)
                values.append(total / len(refs))
        return tuple(values)


def dense_hits_authority(nodes, edges) -> dict:
    """Principal eigenvector of A^T A via numpy eigendecomposition."""
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n))
    for u, v in edges:
        a[index[u], index[v]] = 1.0
    values, vectors = np.linalg.eigh(a.T @ a)
    principal = np.abs(vectors[:, int(np.argmax(values))])
    norm = np.linalg.norm(principal)
    if norm > 0:
        principal = principal / norm
    return {v: float(principal[i]) for i, v in enumerate(nodes)}


def all_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def matrix_modularity(nodes, weighted_edges, groups) -> float:
    """Q from the adjacency-matrix formulation over ordered node pairs."""
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    a = np.zeros((n, n))
    for u, v, w in weighted_edges:
        a[index[u], index[v]] += w
        a[index[v], index[u]] += w
    two_m = a.sum()
    if two_m == 0:
        return 0.0
    k = a.sum(axis=1)
    com = {}
    for g, members in enumerate(groups):
        for v in members:
            com[index[v]] = g
    q = 0.0
    for i in range(n):
        for j in range(n):
            if com[i] == com[j]:
                q += a[i, j] - k[i] * k[j] / two_m
    return q / two_m


def best_partition(nodes, weighted_edges):
    """Exhaustive modularity maximum; only feasible for <= 8 nodes."""
    best_q = -np.inf
    best = None
    for partition in all_partitions(sorted(nodes)):
        q = matrix_modularity(sorted(nodes), weighted_edges, partition)
        if q > best_q + 1e-12:
            best_q = q
            best = partition
    return best, best_q


# Gini trees grown recursively, one node at a time, on a copy of the
# bootstrap rows: the reference for newsnet.ml.forest. This is the code the
# batched grower replaced, with one change: a midpoint threshold that does not
# lie in (lo, hi] is replaced by hi. Such a midpoint (after -inf, between
# neighbouring floats, or overflowing to inf) sent every row to one side, so
# the child equalled its parent and the recursion never ended.

class _Leaf:
    __slots__ = ("prediction",)

    def __init__(self, counts):
        # counts = (n_true, n_fake); ties predict fake
        self.prediction = 1 if counts[1] >= counts[0] else 0


class _Split:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature, threshold, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _gini_best_split(X, y, rows, features, min_leaf):
    """Best (weighted_gini, feature, threshold) over the candidate features."""
    n = rows.size
    best = (math.inf, -1, 0.0)
    for f in features:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ys = y[rows][order]
        cuts = np.nonzero(cs[:-1] < cs[1:])[0]
        if cuts.size == 0:
            continue
        left_n = cuts + 1
        right_n = n - left_n
        keep = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not keep.any():
            continue
        cuts = cuts[keep]
        left_n = left_n[keep]
        right_n = right_n[keep]
        pos = np.cumsum(ys)
        left_pos = pos[cuts]
        right_pos = pos[-1] - left_pos
        p_l = left_pos / left_n
        p_r = right_pos / right_n
        gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
        weighted = (left_n * gini_l + right_n * gini_r) / n
        i = int(np.argmin(weighted))
        if weighted[i] < best[0]:
            lo, hi = cs[cuts[i]], cs[cuts[i] + 1]
            threshold = (lo + hi) / 2.0
            if not lo < threshold <= hi:  # the one change: see the note above
                threshold = hi
            best = (float(weighted[i]), f, float(threshold))
    return best


class ReferenceDecisionTree:
    """CART-style classifier; axis-aligned splits, Gini impurity."""

    def __init__(self, max_depth=None, min_leaf=1, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.seed = seed
        self._root = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        rng = np.random.default_rng(self.seed)
        n_features = X.shape[1]
        self._root = self._grow(X, y, np.arange(X.shape[0]), 0, rng, n_features)
        return self

    def _candidate_features(self, rng, n_features):
        if self.max_features is None or self.max_features >= n_features:
            return list(range(n_features))
        picked = rng.choice(n_features, size=self.max_features, replace=False)
        return sorted(int(f) for f in picked)

    def _grow(self, X, y, rows, depth, rng, n_features):
        counts = (int(np.sum(y[rows] == 0)), int(np.sum(y[rows] == 1)))
        if counts[0] == 0 or counts[1] == 0:
            return _Leaf(counts)
        if self.max_depth is not None and depth >= self.max_depth:
            return _Leaf(counts)
        if rows.size < 2 * self.min_leaf:
            return _Leaf(counts)
        n = rows.size
        p = counts[1] / n
        parent_gini = 1.0 - p ** 2 - (1.0 - p) ** 2
        features = self._candidate_features(rng, n_features)
        gini, feature, threshold = _gini_best_split(X, y, rows, features, self.min_leaf)
        if feature < 0 or gini >= parent_gini:
            return _Leaf(counts)
        mask = X[rows, feature] < threshold
        left = self._grow(X, y, rows[mask], depth + 1, rng, n_features)
        right = self._grow(X, y, rows[~mask], depth + 1, rng, n_features)
        return _Split(feature, threshold, left, right)

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.int64)
        for i in range(X.shape[0]):
            node = self._root
            while isinstance(node, _Split):
                node = node.left if X[i, node.feature] < node.threshold else node.right
            out[i] = node.prediction
        return out


class ReferenceRandomForest:
    """Bootstrap forest of Gini trees; majority vote, ties to fake."""

    def __init__(self, n_trees=100, max_features="sqrt", max_depth=None,
                 min_leaf=1, bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.bootstrap = bootstrap
        self.seed = seed
        self._trees = []

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n, d = X.shape
        if self.max_features == "sqrt":
            per_split = math.ceil(math.sqrt(d))
        else:
            per_split = min(int(self.max_features), d)
        self._trees = []
        for t in range(self.n_trees):
            tree_seed = derive_seed(self.seed, "tree", t)
            rng = np.random.default_rng(tree_seed)
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            tree = ReferenceDecisionTree(max_depth=self.max_depth,
                                         min_leaf=self.min_leaf,
                                         max_features=per_split,
                                         seed=derive_seed(tree_seed, "splits"))
            tree.fit(X[rows], y[rows])
            self._trees.append(tree)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for tree in self._trees:
            votes += tree.predict(X)
        return (2 * votes >= len(self._trees)).astype(np.int64)
