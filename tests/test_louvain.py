import random
from itertools import combinations

import numpy as np
import pytest

from newsnet.corpus import SocialGraph
from newsnet.diffusion import build_all_networks
from newsnet.louvain import _Level, global_communities, local_communities

from oracles import (RebuildSweepLevel, SortedSweepLevel, adjacency_aggregated_edges,
                     best_partition, by_id, graph_with_users, id_network, louvain,
                     matrix_modularity, random_corpus, string_graph, symmetrize)


def _clique_edges(nodes):
    return [(u, v, 1.0) for u, v in combinations(nodes, 2)]


def _modularity(assign, edges):
    groups: dict = {}
    for node, com in assign.communities.items():
        groups.setdefault(com, []).append(node)
    return matrix_modularity(sorted(assign.communities), edges, list(groups.values()))


def test_two_cliques_found_exactly():
    left = [f"a{i}" for i in range(4)]
    right = [f"b{i}" for i in range(4)]
    edges = _clique_edges(left) + _clique_edges(right)
    assign = louvain(left + right, edges, seed=1)
    assert assign.n_communities == 2
    assert len({assign.communities[v] for v in left}) == 1
    assert len({assign.communities[v] for v in right}) == 1
    # matches the exhaustive modularity optimum
    best, best_q = best_partition(left + right, edges)
    assert _modularity(assign, edges) == pytest.approx(best_q, abs=1e-9)
    best_sets = {frozenset(group) for group in best}
    assert best_sets == {frozenset(left), frozenset(right)}


def test_edgeless_graph_all_singletons():
    nodes = [f"n{i}" for i in range(7)]
    assign = louvain(nodes, [], seed=3)
    assert assign.n_communities == 7


def test_single_clique_one_community():
    nodes = [f"c{i}" for i in range(6)]
    edges = _clique_edges(nodes)
    assign = louvain(nodes, edges, seed=2)
    assert assign.n_communities == 1
    _, best_q = best_partition(nodes, edges)
    assert _modularity(assign, edges) == pytest.approx(best_q, abs=1e-9)


def test_deterministic_given_seed():
    graph, _ = random_corpus(11)
    edges = symmetrize(string_graph(graph).edges)
    a1 = louvain(graph.users, edges, seed=9)
    a2 = louvain(graph.users, edges, seed=9)
    assert a1.communities == a2.communities


def test_modularity_beats_singletons():
    for seed in range(6):
        graph, _ = random_corpus(seed)
        edges = symmetrize(string_graph(graph).edges)
        assign = louvain(graph.users, edges, seed=seed)
        nodes = list(graph.users)
        base = matrix_modularity(nodes, edges, [[v] for v in nodes])
        q = _modularity(assign, edges)
        assert q >= base - 1e-12
        assert -0.5 <= q <= 1.0


def test_symmetrize_collapses_reciprocal():
    edges = symmetrize([("a", "b"), ("b", "a"), ("b", "c")])
    assert edges == [("a", "b", 1.0), ("b", "c", 1.0)]


@pytest.mark.parametrize("seed", range(30))
def test_global_communities_equal_louvain_over_user_ids(seed):
    # the rank pairs from the CSR against the id pairs the ranks replaced, and
    # the sweep against the sorted candidate scan it replaced
    graph, _ = random_corpus(seed)
    by_ids = louvain(graph.users, symmetrize(string_graph(graph).edges), seed=seed)
    assert by_id(graph.users, global_communities(graph, seed=seed)) == by_ids.communities


def test_global_scope_covers_isolated_nodes():
    graph = graph_with_users([("a", "b")], ["a", "b", "c"])
    assign = global_communities(graph, seed=0)
    assert isinstance(assign, np.ndarray) and assign.dtype == np.int64
    assert assign.tolist() == [0, 0, 1]  # one community per rank; c is on its own


@pytest.mark.parametrize("seed", range(30))
def test_local_communities_equal_louvain_over_user_ids(seed):
    # the position pairs of a network against the id pairs they replaced
    graph, table = random_corpus(seed)
    for news, net in build_all_networks(graph, table).items():
        ids = id_network(graph.users, net)
        assert local_communities(net, seed) \
            == louvain(ids.nodes, symmetrize(ids.edges), seed).n_communities, news


@pytest.mark.parametrize("level", [_Level, RebuildSweepLevel, SortedSweepLevel])
def test_sweep_breaks_a_gain_tie_for_the_smallest_community(level):
    # Path 0 - 1 - 2 with singletons: node 1 gains 1 - 2 * 1 / 4 = 0.5 by
    # joining either neighbour, and takes the smaller community, 0.
    path = level(3, [0, 1], [1, 2], [1.0, 1.0])
    assert path.sweep([1])
    assert path.com == [0, 0, 2]
    assert path.com_tot == [3.0, 0.0, 1.0] and path.com_in == [1.0, 0.0, 0.0]
    # Weight 2 on both edges and a self-loop of 1 at each end, as in an
    # aggregated level: k = 4 everywhere and m = 6, so node 1 gains
    # 2 - 4 * 4 / 12 by joining either end, and again takes community 0.
    path = level(3, [0, 0, 1, 2], [0, 1, 2, 2], [1, 2, 2, 1])
    assert path.sweep([1])
    assert path.com == [0, 0, 2]
    assert path.com_tot == [8, 0, 4] and path.com_in == [3, 0, 1]


def _random_level(rng):
    """The pair lists of a random weighted level: self-loops, repeated pairs and
    weights above 1, as an aggregated level has."""
    n = rng.randint(1, 24)
    lows, highs, weights = [], [], []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = sorted((rng.randrange(n), rng.randrange(n)))
        lows.append(u)
        highs.append(v)
        weights.append(rng.choice([1, 1, 1, 2, 3, 7]))
    return n, lows, highs, weights


def assert_neighbour_weights(level):
    """Each node's kept weights are those recomputed from adj and com, none zero."""
    for i, kept in enumerate(level.nc):
        want: dict = {}
        for j, w in level.adj[i].items():
            want[level.com[j]] = want.get(level.com[j], 0) + w
        assert kept == want and 0 not in kept.values(), i


# Levels where a node's gains tie in some visiting orders: the weighted path
# of the test above, and the triangles-and-bridge graph below with every pair
# weighing 2.
TIED_LEVELS = [(3, [0, 0, 1, 2], [0, 1, 2, 2], [1, 2, 2, 1]),
               (7, [0, 0, 1, 2, 3, 4, 4, 5], [1, 2, 2, 3, 4, 5, 6, 6], [2] * 8)]


@pytest.mark.parametrize("seed", range(20))
def test_sweep_equals_the_rebuilding_sweep(seed):
    # sweep by sweep until nothing moves, each level in a seeded order
    rng = random.Random(seed)
    for shape in TIED_LEVELS + [_random_level(rng) for _ in range(20)]:
        fast, slow = _Level(*shape), RebuildSweepLevel(*shape)
        assert_neighbour_weights(fast)
        if not fast.m:
            continue  # optimize leaves an edgeless level as it is
        order = list(range(shape[0]))
        rng.shuffle(order)
        for _ in range(100):
            moved = fast.sweep(order)
            assert moved == slow.sweep(order)
            assert (fast.com, fast.com_tot, fast.com_in) == (slow.com, slow.com_tot, slow.com_in)
            assert_neighbour_weights(fast)
            if not moved:
                break
        else:
            pytest.fail("the sweeps did not settle")


@pytest.mark.parametrize("seed", range(20))
def test_aggregation_equals_the_adjacency_walk(seed):
    # self-loops, repeated pairs and weights up to 7, under random partitions,
    # the singletons, one community, and the partition a level settles in
    rng = random.Random(seed)
    for shape in TIED_LEVELS + [_random_level(rng) for _ in range(20)]:
        n = shape[0]
        level = _Level(*shape)
        k = rng.randint(1, n)
        partitions = [[rng.randrange(k) for _ in range(n)], list(range(n)), [0] * n]
        level.optimize(random.Random(seed))
        for part in partitions + [level.partition()]:
            got = level.aggregated_edges(part)
            assert got == adjacency_aggregated_edges(level, part)
            assert all(type(w) is int for w in got[2])


def test_level_sums_are_exact_ints_at_any_scale():
    # Weights count symmetrized pairs, so every sum is an int: 2**60 + 1 would
    # round to 2**60 as a float.
    assert _Level(2, [0], [1], [2 ** 60]).k == [2 ** 60, 2 ** 60]
    level = _Level(3, [0, 0, 2], [1, 1, 2], [2 ** 60, 1, 2 ** 60])
    assert level.k == [2 ** 60 + 1, 2 ** 60 + 1, 2 ** 61] and level.m == 2 ** 61 + 1
    assert level.self_w == [0, 0, 2 ** 60] and level.adj[0] == level.nc[0] == {1: 2 ** 60 + 1}
    assert all(type(x) is int for x in level.k + level.com_tot + level.com_in + [level.m])


TRIANGLES_AND_BRIDGE = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"),
                        ("d", "e"), ("e", "f"), ("e", "g"), ("f", "g")]


@pytest.mark.parametrize("seed", range(20))
def test_bridge_tied_between_two_triangles_joins_the_smaller_community(seed):
    # d links the triangles abc and efg by one edge each, so its gains tie.
    # In all 5,040 visiting orders of the first level it joins abc, whose
    # community number (a member's rank) is the smaller; taking the last of
    # the ties instead puts it in efg in every order.
    graph = SocialGraph.from_edges(TRIANGLES_AND_BRIDGE)
    assign = global_communities(graph, seed=seed)
    assert assign.tolist() == [0, 0, 0, 0, 1, 1, 1]
    by_ids = louvain(graph.users, symmetrize(TRIANGLES_AND_BRIDGE), seed=seed)
    assert by_id(graph.users, assign) == by_ids.communities
