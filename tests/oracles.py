"""Independent brute-force oracles used to cross-check the fast implementations.

Everything here is written from the definitions: exhaustive triple loops,
Floyd-Warshall with matrix-power path counts, eigendecompositions, exhaustive
set partitions, the pure-Python centrality loops the array code in
`newsnet.centrality` replaced and its one-source-at-a-time Brandes loop, the
per-source BFS and heap Dijkstra the bit-parallel hop counts and the
all-sources array relaxation in `newsnet.distances` replaced, the WL
signatures by string relabelling through one shared dictionary and the pairwise similarity loops over them that the integer refinement and Gram
matrices in `newsnet.wl` replaced, the dict refinement its hashed array
refinement replaced, the recursive per-node tree growth the
presorted batched grower in `newsnet.ml.forest` replaced, the per-network
dict loops (susceptibility classes, engagement and edge partitions, triad
census, the static block) that the array blocks in `newsnet.features`
replaced, the id-keyed flow matrix, triangle enumeration and subsampling
that the rank arrays of `newsnet.distances`, `newsnet.triads` and
`newsnet.diffusion` replaced, the per-user dict susceptibility fit that
`newsnet.susceptibility.fit` replaced, and the two Louvain sweeps that
`newsnet.louvain` replaced: one scanning candidate communities in sorted
order, and one rebuilding each node's neighbour-community weights at every
visit, and the Louvain aggregation by a walk of each level's adjacency
dicts that summing the level's edge list replaced, and the synthetic
generator's two spreader-drawing loops (a follow-edge walk and a
pool-biased draw) that `newsnet.synth._pick` replaced.
Networks are walked as `IdNetwork`s, sets of user ids read back from the
package's rank arrays, per-rank arrays as {user id: value} dicts
(`by_id`), and engagement tables as {(news, user id): count} records
(`id_records`). Apart from the pairwise WL kernel, the WL Gram product the dict
refinement feeds and the Louvain levels' bookkeeping, these paths share no
code with the package internals.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from newsnet.centrality import DAMPING, MAX_ITER, MEASURES, TOLERANCE, centralities
from newsnet.corpus import FAKE, TRUE, EngagementTable, SocialGraph
from newsnet.diffusion import DiffusionNetwork
from newsnet.distances import DistanceStats
from newsnet.features import DYNAMIC_NAMES, FEATURE_NAMES, N_FEATURES, NodeTable
from newsnet.features import dynamic_features as package_dynamic_features
from newsnet.susceptibility import (BY_FREQUENCY, BY_NEWS, CLASSES, METHODS, NORMAL,
                                    SUSCEPTIBLE, UNKNOWN)
from newsnet.synth import POOL_BIAS
from newsnet.louvain import MIN_GAIN, _Level
from newsnet.triads import CYCLIC_CLASSES, TRIAD_CLASSES
from newsnet.util import derive_seed
from newsnet.wl import WLSignature, _gram, wl_kernel_normalized

IDENTITY = "identity"
ALL_FEATURES = list(range(1, N_FEATURES + 1))  # the mask of every feature, 1-based
SUSCEPTIBILITY_CLASS = "susceptibility_class"
LABELING_SCHEMES = (IDENTITY, SUSCEPTIBILITY_CLASS)


def median(values) -> float:
    """Midpoint of the two central order statistics; 0.0 for an empty sequence."""
    vs = sorted(values)
    n = len(vs)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2 == 1:
        return float(vs[mid])
    return (float(vs[mid - 1]) + float(vs[mid])) / 2.0


def held_out_news(split, fold) -> list:
    """The news of one cross-validation fold, sorted: read off `split.folds`."""
    return sorted(news for news, f in split.folds.items() if f == fold)


def safe_ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def by_id(users, values) -> dict:
    """{user id: value} of an array over the graph ranks; `users` is the graph's."""
    return dict(zip(users, np.asarray(values).tolist()))


def id_centralities(graph: SocialGraph) -> dict:
    """`centralities(graph)` as {measure: {user id: value}}."""
    return {measure: by_id(graph.users, values)
            for measure, values in centralities(graph).items()}


@dataclass(frozen=True)
class SusceptibilityModel:
    """Per-user susceptibility scores keyed by user id."""

    theta: float
    scores: dict  # user_id -> score, only for users with training history

    def score(self, user) -> float:
        return self.scores.get(user, self.theta)

    def classify(self, user) -> str:
        s = self.score(user)
        if s < self.theta:
            return NORMAL
        if s > self.theta:
            return SUSCEPTIBLE
        return UNKNOWN


def id_records(graph: SocialGraph, table: EngagementTable) -> dict:
    """{(news, user id): count} of every engagement: the table's ranks read back
    through `graph.users`, the records `EngagementTable.from_records` takes."""
    return {(news, graph.users[rank]): count for news, by_rank in table.counts.items()
            for rank, count in by_rank.items()}


def fit(graph: SocialGraph, table: EngagementTable, training_news, method: str,
        theta: float) -> SusceptibilityModel:
    """Per-user susceptibility scores from the training news only, by a loop
    over each user's spreading history: the dict fit `susceptibility.fit`
    replaced."""
    training = frozenset(training_news)
    user_news: dict = {}
    for (news, user), count in id_records(graph, table).items():
        user_news.setdefault(user, {})[news] = count
    scores: dict = {}
    for user, by_news in user_news.items():
        fake_n = total_n = fake_t = total_t = 0
        for news, count in by_news.items():
            if news not in training:
                continue
            total_n += 1
            total_t += count
            if table.labels[news] == FAKE:
                fake_n += 1
                fake_t += count
        if total_n == 0:
            continue  # no training history: score defaults to theta
        scores[user] = fake_n / total_n if method == BY_NEWS else fake_t / total_t
    return SusceptibilityModel(theta=float(theta), scores=scores)


def fit_all(graph: SocialGraph, table: EngagementTable, training_news, theta: float) -> dict:
    """One id-keyed model per scoring method; keys are the method names."""
    return {m: fit(graph, table, training_news, m, theta) for m in METHODS}


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


def labeled_graph(network: IdNetwork, scheme: str, model=None) -> LabeledGraph:
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


def dict_refinement(table: NodeTable, labels) -> list:
    """Every node's WL label id at iterations 0..h, by dict compression.

    A node's next label is `ids.setdefault((own, sorted neighbour labels),
    len(ids))`, with one fresh `ids` per iteration shared by all of the
    table's networks: the refinement `newsnet.wl` ran before it hashed
    neighbour multisets on arrays.
    """
    flat, bounds = table.neighbours.tolist(), table.neighbour_ptr.tolist()
    neighbours = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
    ids: dict = {}
    current = [ids.setdefault(label, len(ids)) for label in np.asarray(labels).tolist()]
    iterations = [current]
    for _ in range(table.h):
        previous, ids = current, {}
        current = [ids.setdefault((own, tuple(sorted([previous[u] for u in adjacent]))),
                                  len(ids))
                   for own, adjacent in zip(previous, neighbours)]
        iterations.append(current)
    return iterations


def dict_normalized_gram(table: NodeTable, labels) -> np.ndarray:
    """The normalized Gram matrix of `dict_refinement`'s labels: every one of
    the n x n products takes Python's `** 0.5`, as before the package
    normalized half of them."""
    gram = _gram(table.network, dict_refinement(table, labels), len(table.order))
    diag = np.diag(gram)
    roots = [x ** 0.5 for x in np.outer(diag, diag).ravel().tolist()]
    root = np.array(roots).reshape(gram.shape)
    return np.divide(gram, root, out=np.zeros_like(gram), where=gram != 0.0)


def same_partition(a, b) -> bool:
    """Whether two labellings of the same nodes group them alike."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if a.size != b.size:
        return False
    if not a.size:
        return True
    pairs = np.unique(a * (int(b.max()) + 1) + b).size
    return pairs == np.unique(a).size == np.unique(b).size


@dataclass(frozen=True)
class StringGraph:
    """A follow graph as sets of user ids, the form the oracles walk."""

    nodes: frozenset
    edges: frozenset  # (follower, followee) pairs
    out_neighbors: dict  # user -> frozenset of the users it follows
    in_neighbors: dict  # user -> frozenset of its followers


def string_graph(graph: SocialGraph) -> StringGraph:
    """The package's rank CSR read back as user-id sets."""
    users = graph.users
    edges = frozenset((users[u], users[v]) for u, v in
                      zip(graph.sources().tolist(), graph.indices.tolist()))
    out_nbrs = {v: set() for v in users}
    in_nbrs = {v: set() for v in users}
    for u, v in edges:
        out_nbrs[u].add(v)
        in_nbrs[v].add(u)
    return StringGraph(nodes=frozenset(users), edges=edges,
                       out_neighbors={v: frozenset(s) for v, s in out_nbrs.items()},
                       in_neighbors={v: frozenset(s) for v, s in in_nbrs.items()})


@dataclass(frozen=True)
class IdNetwork:
    """A diffusion network as user-id sets, the form the oracles walk."""

    news_id: str
    label: str
    nodes: frozenset
    edges: frozenset  # (follower, followee) pairs
    counts: dict  # user -> spreading count

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_nodes(self) -> list:
        return sorted(self.nodes)


def id_network(users, net: DiffusionNetwork) -> IdNetwork:
    """The package's rank network read back as id sets; `users` is the graph's."""
    nodes = [users[r] for r in net.ranks.tolist()]
    return IdNetwork(net.news_id, net.label, frozenset(nodes),
                     frozenset((nodes[a], nodes[b]) for a, b in net.edges.tolist()),
                     dict(zip(nodes, net.counts.tolist())))


def id_networks(users, networks: dict) -> dict:
    return {news: id_network(users, net) for news, net in networks.items()}


def rank_network(users, net: IdNetwork) -> DiffusionNetwork:
    """An id network over the ranks of `users`, a sorted tuple of ids."""
    nodes = net.sorted_nodes()
    position = {v: i for i, v in enumerate(nodes)}
    rank = {v: i for i, v in enumerate(users)}
    edges = sorted((position[u], position[v]) for u, v in net.edges)
    return DiffusionNetwork(net.news_id, net.label,
                            np.array([rank[v] for v in nodes], dtype=np.int64),
                            np.array([net.counts[v] for v in nodes], dtype=np.int64),
                            np.array(edges, dtype=np.int64).reshape(-1, 2))


def rank_networks(networks: dict) -> tuple:
    """The sorted ids of every node of some id networks, and the networks over their ranks."""
    users = tuple(sorted(set().union(*(net.nodes for net in networks.values()))))
    return users, {news: rank_network(users, net) for news, net in networks.items()}


def make_network(news_id, edges, nodes=None, label="fake", counts=None) -> IdNetwork:
    """An id network; nodes default to the edge endpoints, counts to 1."""
    nodes = frozenset(nodes if nodes is not None else {u for e in edges for u in e})
    counts = counts or {}
    return IdNetwork(news_id, label, nodes, frozenset(edges),
                     {v: counts.get(v, 1) for v in nodes})


def subsample(network: IdNetwork, mode: str, proportion: float, seed: int) -> IdNetwork:
    """Subsampling over ids: `rng.sample` of the sorted nodes or edges."""
    rng = random.Random(seed)
    if mode == "nodes":
        population = network.sorted_nodes()
        kept = frozenset(rng.sample(population, math.ceil(proportion * len(population))))
        edges = frozenset((u, v) for u, v in network.edges if u in kept and v in kept)
        return IdNetwork(network.news_id, network.label, kept, edges,
                         {u: network.counts[u] for u in kept})
    population = sorted(network.edges)
    kept_edges = frozenset(rng.sample(population, math.ceil(proportion * len(population))))
    return IdNetwork(network.news_id, network.label, network.nodes, kept_edges,
                     dict(network.counts))


@dataclass(frozen=True)
class CommunityAssignment:
    communities: dict  # user id -> community index (0..k-1)

    @property
    def n_communities(self) -> int:
        return len(set(self.communities.values()))


class RebuildSweepLevel(_Level):
    """`louvain._Level` with the sweep it replaced: each visit rebuilds node i's
    neighbour-community weights from `adj[i]` and `com`."""

    def sweep(self, order) -> bool:
        moved = False
        com, adj, k, self_w = self.com, self.adj, self.k, self.self_w
        com_tot, com_in = self.com_tot, self.com_in
        two_m = 2.0 * self.m
        for i in order:
            old, k_i = com[i], k[i]
            neigh = {old: 0}
            for j, w in adj[i].items():
                neigh[com[j]] = neigh.get(com[j], 0) + w
            # detach i before evaluating gains
            com_tot[old] -= k_i
            com_in[old] -= neigh[old] + self_w[i]
            best_c = old
            best_gain = neigh[old] - k_i * com_tot[old] / two_m
            for c, w in neigh.items():  # old comes first and ties only with itself
                gain = w - k_i * com_tot[c] / two_m
                if gain > best_gain or (gain == best_gain and old != best_c > c):
                    best_gain, best_c = gain, c
            com[i] = best_c
            com_tot[best_c] += k_i
            com_in[best_c] += neigh[best_c] + self_w[i]
            moved = moved or best_c != old
        return moved


class SortedSweepLevel(_Level):
    """`louvain._Level` with the sweep it replaced: candidates scanned in sorted order."""

    def sweep(self, order) -> bool:
        moved = False
        for i in order:
            old = self.com[i]
            neigh = {old: 0.0}
            for j, w in self.adj[i].items():
                neigh[self.com[j]] = neigh.get(self.com[j], 0.0) + w
            # detach i before evaluating gains
            self.com_tot[old] -= self.k[i]
            self.com_in[old] -= neigh[old] + self.self_w[i]
            two_m = 2.0 * self.m
            best_c = old
            best_gain = neigh[old] - self.k[i] * self.com_tot[old] / two_m
            for c in sorted(neigh):
                if c == old:
                    continue
                gain = neigh[c] - self.k[i] * self.com_tot[c] / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            self.com[i] = best_c
            self.com_tot[best_c] += self.k[i]
            self.com_in[best_c] += neigh.get(best_c, 0.0) + self.self_w[i]
            if best_c != old:
                moved = True
        return moved

    def aggregated_edges(self, partition) -> tuple:
        return adjacency_aggregated_edges(self, partition)


def adjacency_aggregated_edges(level: _Level, partition) -> tuple:
    """`_Level.aggregated_edges` as a walk of the level's adjacency dicts, its
    self-loops apart and each other pair once (i < j): (lows, highs, weights)."""
    edges: dict = {}
    for i in range(level.n):
        ci = partition[i]
        if level.self_w[i]:
            key = (ci, ci)
            edges[key] = edges.get(key, 0) + level.self_w[i]
        for j, w in level.adj[i].items():
            if i < j:
                a, b = partition[i], partition[j]
                key = (a, b) if a <= b else (b, a)
                edges[key] = edges.get(key, 0) + w
    pairs = sorted(edges)
    return [a for a, _ in pairs], [b for _, b in pairs], [edges[pair] for pair in pairs]


def sorted_sweep_communities(n, lows, highs, weights, seed: int) -> list:
    """`louvain.communities` over `SortedSweepLevel`s: each node's community."""
    assignment = list(range(n))
    level_n, best_q, level_no = n, None, 0
    while True:
        level = SortedSweepLevel(level_n, lows, highs, weights)
        q = level.optimize(random.Random(derive_seed(seed, "louvain", level_no)))
        part = level.partition()
        assignment = [part[c] for c in assignment]
        if best_q is not None and q - best_q <= MIN_GAIN:
            break
        best_q = q
        n_coms = max(part) + 1
        if n_coms == level_n:
            break
        lows, highs, weights = level.aggregated_edges(part)
        level_n, level_no = n_coms, level_no + 1
    relabel: dict = {}
    return [relabel.setdefault(c, len(relabel)) for c in assignment]


def louvain(nodes, weighted_edges, seed: int) -> CommunityAssignment:
    """Louvain over user ids: the sorted-sweep Louvain on the ids' sorted order.

    Nodes without edges end up as singletons.
    """
    node_list = sorted(set(nodes))
    index = {n: i for i, n in enumerate(node_list)}
    lows, highs, weights = [], [], []
    for u, v, w in weighted_edges:
        if u not in index or v not in index:
            raise ValueError(f"edge ({u!r}, {v!r}) references an unknown node")
        lows.append(index[u])
        highs.append(index[v])
        weights.append(float(w))
    return CommunityAssignment(dict(zip(node_list, sorted_sweep_communities(
        len(node_list), lows, highs, weights, seed))))


def symmetrize(directed_edges) -> list:
    """Unordered connected pairs with weight 1 (reciprocal pairs collapse)."""
    pairs = set()
    for u, v in directed_edges:
        if u == v:
            continue
        pairs.add((u, v) if u <= v else (v, u))
    return [(u, v, 1.0) for u, v in sorted(pairs)]


@dataclass(frozen=True)
class FlowMatrix:
    """Edge flows keyed by id pairs, as the dict loop builds them."""

    flows: dict  # (i, j) -> flow > 0, support within the social edge set
    inflow: dict  # j -> sum of flows into j
    lengths: dict  # (i, j) -> effective distance, for every edge with flow > 0

    def flow(self, i, j) -> float:
        return self.flows.get((i, j), 0.0)


def flow_matrix(networks, definition: str) -> FlowMatrix:
    """The dict loop `distances.flow_matrix` replaced, over id networks."""
    flows: dict = {}
    for net in networks:
        for edge in sorted(net.edges):
            if definition == "shared_news":
                add = 1.0
            else:
                u, v = edge
                add = float(min(net.counts[u], net.counts[v]))
            flows[edge] = flows.get(edge, 0.0) + add
    inflow: dict = {}
    for edge in sorted(flows):
        j = edge[1]
        inflow[j] = inflow.get(j, 0.0) + flows[edge]
    lengths = {edge: 1.0 - math.log(f / inflow[edge[1]])
               for edge, f in flows.items() if f > 0.0}
    return FlowMatrix(flows=flows, inflow=inflow, lengths=lengths)


def effective_distance(flow: FlowMatrix, i, j) -> float:
    """Edge length from flow; infinite when the edge carries no flow."""
    return flow.lengths.get((i, j), math.inf)


def flow_lengths(users, table, lengths) -> dict:
    """The package's lengths of a `NodeTable`'s edges as {(follower id, followee id): length}.

    An edge that several stories share must get one length.
    """
    out: dict = {}
    for s, t, length in zip(table.rank[table.source].tolist(),
                            table.rank[table.target].tolist(), lengths.tolist()):
        edge = (users[s], users[t])
        assert out.setdefault(edge, length) == length, edge
    return out


@dataclass(frozen=True)
class TriangleIndex:
    """Orientation-resolved triangles of one network (no node labels)."""

    total: int
    reciprocal: int
    oriented: tuple  # of ("transitive", (source, middle, sink)) or ("cyclic", (a, b, c))


def enumerate_triangles(network: IdNetwork) -> TriangleIndex:
    """The per-network loop over ids that `triads.enumerate_triangles` replaced."""
    und = {v: set() for v in network.nodes}
    for u, v in network.edges:
        und[u].add(v)
        und[v].add(u)
    # rank by (degree, id): each triangle listed once from its lowest-rank node
    rank = {v: i for i, v in enumerate(sorted(network.nodes,
                                              key=lambda n: (len(und[n]), n)))}
    edges = network.edges
    total = 0
    reciprocal = 0
    oriented = []
    for u in sorted(network.nodes):
        higher = {w for w in und[u] if rank[w] > rank[u]}
        for v in sorted(higher):
            for w in sorted(higher & und[v]):
                if rank[w] <= rank[v]:
                    continue
                total += 1
                tri = (u, v, w)
                if any((a, b) in edges and (b, a) in edges
                       for a in tri for b in tri if a < b):
                    reciprocal += 1
                    continue
                out_deg = {n: sum(1 for x in tri if x != n and (n, x) in edges)
                           for n in tri}
                if all(d == 1 for d in out_deg.values()):
                    oriented.append(("cyclic", tri))
                else:
                    source = next(n for n in tri if out_deg[n] == 2)
                    sink = next(n for n in tri if out_deg[n] == 0)
                    middle = next(n for n in tri if n != source and n != sink)
                    oriented.append(("transitive", (source, middle, sink)))
    return TriangleIndex(total=total, reciprocal=reciprocal, oriented=tuple(oriented))


def graph_with_users(edges, users) -> SocialGraph:
    """The follow graph of (follower, followee) id pairs over `users`, which
    holds every endpoint and may hold users without a follow edge.

    No corpus file can name such a user (`SocialGraph.from_edges` takes the
    edge endpoints as the users), so the sorted users and the out-CSR of
    ranks are built here directly. Duplicate pairs collapse.
    """
    users = tuple(sorted(set(users)))
    rank = {u: r for r, u in enumerate(users)}
    pairs = sorted({(rank[u], rank[v]) for u, v in edges})
    assert all(u != v for u, v in pairs), "self-loop edge"
    degree = Counter(u for u, _ in pairs)
    indptr = np.cumsum([0] + [degree[r] for r in range(len(users))], dtype=np.int64)
    return SocialGraph(users=users, indptr=indptr,
                       indices=np.array([v for _, v in pairs], dtype=np.int64))


def same_graph(a: SocialGraph, b: SocialGraph) -> bool:
    """Whether two graphs hold the same users and the same edges."""
    return (a.users == b.users and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))


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
    graph = graph_with_users(edges, users)

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
    table = EngagementTable.from_records(graph, records, labels)
    return graph, table


def brute_induced_edges(graph: SocialGraph, spreaders) -> set:
    spreaders = set(spreaders)
    return {(u, v) for (u, v) in string_graph(graph).edges
            if u in spreaders and v in spreaders}


def brute_flow(graph: SocialGraph, networks, definition) -> dict:
    flows = {}
    for edge in string_graph(graph).edges:
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


@dataclass(frozen=True)
class TriadCensus:
    total: int
    class_counts: dict  # class name -> count, all 12 keys present
    reciprocal: int
    unknown: int

    def classified_total(self) -> int:
        return sum(self.class_counts.values())


def census(network: IdNetwork, model, index: TriangleIndex | None = None) -> TriadCensus:
    """Classify a network's triangles under a susceptibility model.

    `model` needs a classify(user) -> {normal, susceptible, unknown} method.
    Pass a precomputed TriangleIndex to avoid re-enumeration.
    """
    if index is None:
        index = enumerate_triangles(network)
    counts = {name: 0 for name in TRIAD_CLASSES}
    unknown = 0
    for kind, tri in index.oriented:
        labels = [model.classify(n) for n in tri]
        if any(lab not in (NORMAL, SUSCEPTIBLE) for lab in labels):
            unknown += 1
            continue
        letters = ["n" if lab == NORMAL else "s" for lab in labels]
        if kind == "transitive":
            counts["t_" + "".join(letters)] += 1
        else:
            counts[CYCLIC_CLASSES[letters.count("s")]] += 1
    return TriadCensus(total=index.total, class_counts=counts,
                       reciprocal=index.reciprocal, unknown=unknown)


def triad_features(cens: TriadCensus) -> dict:
    """Per-class triad counts and proportions.

    Proportions are over the classified total (the 12 classes), 0 when no
    triangle is classified.
    """
    classified = cens.classified_total()
    out = {}
    for name in TRIAD_CLASSES:
        out[f"n_triad_{name}"] = float(cens.class_counts[name])
        out[f"pct_triad_{name}"] = (cens.class_counts[name] / classified
                                    if classified else 0.0)
    return out


def _class_maps(network: IdNetwork, model):
    nodes = network.sorted_nodes()
    classes = {v: model.classify(v) for v in nodes}
    scores = {v: model.score(v) for v in nodes}
    return classes, scores


def dynamic_features(extractor, news_id, models: dict) -> dict:
    """The 100 susceptibility-dependent values of one network, name -> value,
    by per-node, per-edge and per-triangle loops in sorted-node order."""
    net = id_network(extractor.graph.users, extractor.networks[news_id])
    tri = enumerate_triangles(net)
    n = net.n_nodes
    total_t = float(sum(net.counts.values()))
    n_edges = net.n_edges
    out: dict = {}
    for tag, method in (("news", BY_NEWS), ("freq", BY_FREQUENCY)):
        model = models[method]
        classes, scores = _class_maps(net, model)
        normal = [v for v in net.sorted_nodes() if classes[v] == NORMAL]
        susceptible = [v for v in net.sorted_nodes() if classes[v] == SUSCEPTIBLE]
        out[f"n_normal_spreaders_{tag}"] = float(len(normal))
        out[f"n_susceptible_spreaders_{tag}"] = float(len(susceptible))
        out[f"pct_normal_spreaders_{tag}"] = safe_ratio(len(normal), n)
        out[f"pct_susceptible_spreaders_{tag}"] = safe_ratio(len(susceptible), n)
        all_scores = list(scores.values())
        out[f"mean_susceptibility_{tag}"] = (add_left_to_right(all_scores) / n) if n else 0.0
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


@functools.lru_cache(maxsize=4)
def _static_rows(extractor) -> dict:
    """{news: static values by name} of every network of an extractor."""
    users = extractor.graph.users
    networks = id_networks(users, extractor.networks)
    nets = [networks[news] for news in sorted(networks)]
    flows = {tag: flow_matrix(nets, definition)
             for tag, definition in (("news", "shared_news"), ("freq", "shared_frequency"))}
    cents = {measure: by_id(users, extractor.centralities[measure]) for measure in MEASURES}
    global_comm = by_id(users, extractor.global_comm)
    return {news: _static_row(net, flows, cents, global_comm,
                              derive_seed(extractor.seed, "louvain_local", news))
            for news, net in networks.items()}


def _static_row(net: IdNetwork, flows: dict, cents: dict, global_comm, seed) -> dict:
    out: dict = {}
    n = net.n_nodes
    out["n_spreaders"] = float(n)
    nodes = net.sorted_nodes()
    for measure in MEASURES:
        out[f"mean_{measure}"] = (add_left_to_right(cents[measure][v] for v in nodes) / n
                                  if n else 0.0)
    for measure in MEASURES:
        out[f"median_{measure}"] = median([cents[measure][v] for v in nodes])
    geo = python_distance_stats(net)
    out["geodesic_max"], out["geodesic_mean"], out["geodesic_median"] = \
        geo.maximum, geo.mean, geo.median
    for tag, flow in flows.items():
        eff = python_distance_stats(net, flow)
        out[f"effective_max_{tag}"] = eff.maximum
        out[f"effective_mean_{tag}"] = eff.mean
        out[f"effective_median_{tag}"] = eff.median
    total_t = float(sum(net.counts.values()))
    out["total_engagements"] = total_t
    out["mean_engagements"] = safe_ratio(total_t, n)
    e = net.n_edges
    out["n_edges"] = float(e)
    out["edges_per_spreader"] = safe_ratio(e, n)
    out["ego_density"] = safe_ratio(e, n * (n - 1) / 2.0)
    tri = enumerate_triangles(net)
    possible = n * (n - 1) * (n - 2) / 6.0 if n >= 3 else 0.0
    out["n_triangles"] = float(tri.total)
    out["triangles_per_spreader"] = safe_ratio(tri.total, n)
    out["triad_density"] = safe_ratio(tri.total, possible)
    if n:
        n_global = len({global_comm[v] for v in net.nodes})
        n_local = louvain(net.nodes, symmetrize(net.edges), seed).n_communities
    else:
        n_global = n_local = 0
    out["n_communities_global"] = float(n_global)
    out["n_communities_local"] = float(n_local)
    out["community_density_global"] = safe_ratio(n_global, n)
    out["community_density_local"] = safe_ratio(n_local, n)
    return out


def static_features(extractor, news_id) -> dict:
    """One network's static block by name, by the per-network loops over ids
    (BFS and heap Dijkstra, dict flows, id triangles, Louvain over ids) that
    `FeatureExtractor.static_block` replaced."""
    return _static_rows(extractor)[news_id]


def feature_row(extractor, news_id, models: dict, references) -> tuple:
    """One network's 142 values assembled by name, as `extract` did per news."""
    named = dict(static_features(extractor, news_id))
    named.update(dynamic_features(extractor, news_id, models))
    named.update(zip(("sim_fake_id", "sim_true_id", "sim_fake_class", "sim_true_class"),
                     map(float, references)))
    return tuple(named[name] for name in FEATURE_NAMES)


def array_dynamic_rows(networks: dict, models: dict) -> dict:
    """The package's array dynamic block of some id networks as {news: {name:
    value}}, for comparison with `dynamic_features`. `models` maps each method
    to any object with score(user) and classify(user)."""
    users, ranked = rank_networks(networks)
    table = NodeTable(ranked)
    vectors = {method: (np.array([model.score(u) for u in users], dtype=np.float64),
                        np.array([CLASSES.index(model.classify(u)) for u in users],
                                 dtype=np.int64))
               for method, model in models.items()}
    block = package_dynamic_features(table, vectors)
    return {news: dict(zip(DYNAMIC_NAMES, row)) for news, row in zip(table.order, block.tolist())}


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
    """One BFS (geodesic) or heap Dijkstra (effective) per source; the mean adds
    left to right."""
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
        mean=add_left_to_right(values) / len(values),
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


def per_source_shortest_paths(n, indptr, indices) -> tuple:
    """Brandes (2001) betweenness and closeness sums from one BFS per source:
    the loop that the blocked, direction-choosing `centrality._shortest_paths`
    replaced.

    The BFS is level-synchronous on the out-CSR. A node's queue position is
    its first occurrence in the frontier's concatenated rows, the order of a
    FIFO queue visiting sorted neighbours. sigma is float64, exact below
    2**53. Each level keeps its fresh pairs (u, w), the shortest-path DAG's
    edges, in descending queue order of w, and the dependency pass
    scatter-adds over them from the last level back. u meets a given w at
    most once, so delta[u] adds its terms in descending queue order of w
    whatever order the pairs of one w take, as a stack-popping loop does:
    no in-CSR and no stable sort are needed for bit-equal sums.

    Returns betweenness and, per node, the number of nodes reachable from it
    and reaching it with the sums of those distances (integers).
    """
    unset = np.iinfo(np.int64).max
    bc = np.zeros(n)
    out_reach, out_total, in_reach, in_total = np.zeros((4, n), dtype=np.int64)
    first = np.full(n, unset)
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s])
        dag = []
        while True:
            # the frontier's rows in order; a fresh pair's row from the row ends
            starts = indptr[frontier]
            lens = indptr[frontier + 1] - starts
            ends = np.cumsum(lens)
            w = indices[np.repeat(starts - ends + lens, lens) + np.arange(ends[-1])]
            fresh = np.flatnonzero(dist[w] < 0)
            if not fresh.size:
                break
            u, w = frontier[np.searchsorted(ends, fresh, side="right")], w[fresh]
            at = np.arange(w.size)
            np.minimum.at(first, w, at)
            queue = first[w]  # increasing with w's queue position
            frontier = w[queue == at]
            first[frontier] = unset
            dist[frontier] = len(dag) + 1
            np.add.at(sigma, w, sigma[u])
            back = np.argsort(-queue)
            dag.append((u[back], w[back]))
        delta = np.zeros(n)
        for u, w in reversed(dag):
            np.add.at(delta, u, sigma[u] / sigma[w] * (1.0 + delta[w]))
        delta[s] = 0.0
        bc += delta
        reached = dist > 0
        out_reach[s] = np.count_nonzero(reached)
        out_total[s] = dist[reached].sum()
        in_reach += reached
        in_total += np.maximum(dist, 0)
    return bc, (out_reach, out_total), (in_reach, in_total)


def add_left_to_right(values) -> float:
    """The float sum of values added one at a time from the left, uncompensated
    on every Python version (3.12's builtin `sum` compensates floats)."""
    total = 0.0
    for value in values:
        total += value
    return total


def python_pagerank(nodes, out_neighbors) -> dict:
    """The dict power iteration that `centrality._pagerank` replaced."""
    n = len(nodes)
    succ = {v: sorted(out_neighbors[v]) for v in nodes}
    ranks = {v: 1.0 / n for v in nodes}
    out_deg = {v: len(succ[v]) for v in nodes}
    dangling = [v for v in nodes if out_deg[v] == 0]
    for _ in range(MAX_ITER):
        dangling_mass = add_left_to_right(ranks[v] for v in dangling)
        base = (1.0 - DAMPING) / n + DAMPING * dangling_mass / n
        new = {v: base for v in nodes}
        for u in nodes:
            if out_deg[u]:
                share = DAMPING * ranks[u] / out_deg[u]
                for v in succ[u]:
                    new[v] += share
        residual = add_left_to_right(abs(new[v] - ranks[v]) for v in nodes)
        ranks = new
        if residual < TOLERANCE:
            break
    return ranks


def python_hits(nodes, out_neighbors, in_neighbors) -> tuple:
    """The dict (hubs, authorities) iteration that `centrality._hits` replaced."""
    n = len(nodes)
    succ = {v: sorted(out_neighbors[v]) for v in nodes}
    preds = {v: sorted(in_neighbors[v]) for v in nodes}
    if not any(succ[v] for v in nodes):
        zeros = {v: 0.0 for v in nodes}
        return dict(zeros), dict(zeros)
    norm0 = n ** 0.5
    hubs = {v: 1.0 / norm0 for v in nodes}
    auths = {v: 1.0 / norm0 for v in nodes}
    for _ in range(MAX_ITER):
        new_a = {v: add_left_to_right(hubs[u] for u in preds[v]) for v in nodes}
        norm = add_left_to_right(x * x for x in new_a.values()) ** 0.5
        if norm == 0.0:
            new_a = {v: 0.0 for v in nodes}
        else:
            new_a = {v: x / norm for v, x in new_a.items()}
        new_h = {v: add_left_to_right(new_a[w] for w in succ[v]) for v in nodes}
        norm = add_left_to_right(x * x for x in new_h.values()) ** 0.5
        if norm == 0.0:
            new_h = {v: 0.0 for v in nodes}
        else:
            new_h = {v: x / norm for v, x in new_h.items()}
        residual = add_left_to_right(abs(new_a[v] - auths[v]) for v in nodes)
        residual += add_left_to_right(abs(new_h[v] - hubs[v]) for v in nodes)
        auths, hubs = new_a, new_h
        if residual < TOLERANCE:
            break
    return hubs, auths


def similarity_features(target: IdNetwork, training_fake, training_true,
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
                total = add_left_to_right(wl_kernel_normalized(target, sigs[r]) for r in refs)
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
            with np.errstate(over="ignore", invalid="ignore"):  # -inf + inf, overflow
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


def walk_grow(rng, size, start, undirected, candidates):
    """Grow a connected-ish spreader set along follow edges."""
    chosen = [start]
    chosen_set = {start}
    while len(chosen) < size:
        frontier = sorted({v for u in chosen for v in undirected.get(u, ())
                           if v not in chosen_set})
        if not frontier:
            rest = [u for u in candidates if u not in chosen_set]
            if not rest:
                break
            frontier = rest
        pick = frontier[int(rng.integers(0, len(frontier)))]
        chosen.append(pick)
        chosen_set.add(pick)
    return chosen


def draw_spreaders(spec, rng, size, label, pool, others, undirected, planted):
    if not planted:
        population = sorted(set(pool) | set(others))
        picks = rng.choice(len(population), size=size, replace=False)
        return [population[int(i)] for i in sorted(picks)]
    preferred, fallback = (sorted(pool), sorted(others))
    if label == TRUE:
        preferred, fallback = fallback, preferred
    walk_prob = 1.0 - 1.0 / spec.depth_effect if label == FAKE else 0.0
    if walk_prob > 0.0 and rng.random() < walk_prob:
        start = preferred[int(rng.integers(0, len(preferred)))]
        candidates = preferred + fallback
        return walk_grow(rng, size, start, undirected, candidates)
    chosen = []
    chosen_set = set()
    while len(chosen) < size:
        source = preferred if rng.random() < POOL_BIAS else fallback
        available = [u for u in source if u not in chosen_set]
        if not available:
            available = [u for u in preferred + fallback if u not in chosen_set]
            if not available:
                break
        pick = available[int(rng.integers(0, len(available)))]
        chosen.append(pick)
        chosen_set.add(pick)
    return chosen
