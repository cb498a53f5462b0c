import random

import numpy as np
import pytest

from newsnet.corpus import EngagementTable
from newsnet.diffusion import build_all_networks, build_network
from newsnet.features import STATIC_NAMES, FeatureExtractor, NodeTable
from newsnet.susceptibility import BY_FREQUENCY, BY_NEWS, NORMAL, SUSCEPTIBLE, UNKNOWN
from newsnet.triads import TRIAD_CLASSES, enumerate_triangles

from oracles import (TriadCensus, array_dynamic_rows, brute_census, graph_with_users, id_network,
                     id_networks, make_network, random_corpus, rank_networks,
                     triad_features as oracle_triad_features)
from oracles import census as oracle_census
from oracles import enumerate_triangles as id_enumerate_triangles


class FixedLabels:
    """Stand-in susceptibility model with explicit classes per user."""

    def __init__(self, classes, default=NORMAL):
        self.classes = classes
        self.default = default

    def classify(self, user):
        return self.classes.get(user, self.default)

    def score(self, user):
        return {NORMAL: 0.0, SUSCEPTIBLE: 1.0, UNKNOWN: 0.5}[self.classify(user)]


def triad_features(net, model) -> dict:
    """The by_news triad counts and proportions of the array block, one network."""
    row = array_dynamic_rows({net.news_id: net}, {BY_NEWS: model, BY_FREQUENCY: model})
    return {name[:-len("_news")]: value for name, value in row[net.news_id].items()
            if "_triad_" in name and name.endswith("_news")}


def _reciprocal(triangles) -> np.ndarray:
    """Each network's triangles with a reciprocal pair: those not oriented."""
    return triangles.total - np.bincount(triangles.network, minlength=triangles.total.size)


def _triangles(networks: dict):
    """`triads.enumerate_triangles` over the node table of some id networks."""
    table = NodeTable(rank_networks(networks)[1])
    return table, enumerate_triangles(table)


def census(net, model) -> TriadCensus:
    """`triads.census` of one network under `model`, with its enumeration's totals."""
    _, triangles = _triangles({net.news_id: net})
    feats = triad_features(net, model)
    counts = {name: int(feats[f"n_triad_{name}"]) for name in TRIAD_CLASSES}
    return TriadCensus(total=int(triangles.total[0]), class_counts=counts,
                       reciprocal=int(_reciprocal(triangles)[0]),
                       unknown=triangles.roles.shape[0] - sum(counts.values()))


def _net(edges, nodes=None):
    return make_network("n1", edges, nodes)


def test_single_transitive_triangle():
    net = _net([("a", "b"), ("b", "c"), ("a", "c")])
    cens = census(net, FixedLabels({}, default=NORMAL))
    assert cens.total == 1
    assert cens.class_counts["t_nnn"] == 1
    assert sum(cens.class_counts.values()) == 1


def test_cyclic_triangle_with_mixed_labels():
    net = _net([("a", "b"), ("b", "c"), ("c", "a")])
    cens = census(net, FixedLabels({"a": NORMAL, "b": SUSCEPTIBLE, "c": SUSCEPTIBLE}))
    assert cens.class_counts["c_nss"] == 1
    assert cens.total == 1


def test_transitive_roles_detected():
    # source s, middle n, sink s
    net = _net([("x", "y"), ("y", "z"), ("x", "z")])
    cens = census(net, FixedLabels({"x": SUSCEPTIBLE, "y": NORMAL, "z": SUSCEPTIBLE}))
    assert cens.class_counts["t_sns"] == 1


def test_reciprocal_pair_excluded():
    net = _net([("a", "b"), ("b", "a"), ("b", "c"), ("a", "c")])
    cens = census(net, FixedLabels({}))
    assert cens.total == 1
    assert cens.reciprocal == 1
    assert sum(cens.class_counts.values()) == 0


def test_unknown_node_excluded():
    net = _net([("a", "b"), ("b", "c"), ("a", "c")])
    cens = census(net, FixedLabels({"b": UNKNOWN}))
    assert cens.unknown == 1
    assert sum(cens.class_counts.values()) == 0


def test_census_matches_brute_force_on_random_networks():
    rng = random.Random(0)
    for seed in range(12):
        graph, table = random_corpus(seed)
        news = table.news_ids()[0]
        net = id_network(graph.users, build_network(graph, table, news))
        classes = {v: rng.choice([NORMAL, SUSCEPTIBLE, UNKNOWN])
                   for v in net.nodes}
        model = FixedLabels(classes)
        cens = census(net, model)
        brute = brute_census(net, model)
        assert cens == oracle_census(net, model)
        assert cens.total == brute["total"]
        assert cens.reciprocal == brute["reciprocal"]
        assert cens.unknown == brute["unknown"]
        for name in TRIAD_CLASSES:
            assert cens.class_counts[name] == brute.get(name, 0), (seed, name)


def test_partition_invariant():
    for seed in range(12):
        graph, table = random_corpus(seed)
        net = id_network(graph.users, build_network(graph, table, table.news_ids()[0]))
        model = FixedLabels({v: [NORMAL, SUSCEPTIBLE, UNKNOWN][i % 3]
                             for i, v in enumerate(sorted(net.nodes))})
        cens = census(net, model)
        assert sum(cens.class_counts.values()) + cens.reciprocal + cens.unknown \
            == cens.total


def test_label_flip_symmetry():
    def flip(name):
        kind, letters = name.split("_")
        flipped = letters.translate(str.maketrans("ns", "sn"))
        if kind == "c":
            flipped = "".join(sorted(flipped))
        return f"{kind}_{flipped}"

    for seed in range(8):
        graph, table = random_corpus(seed)
        net = id_network(graph.users, build_network(graph, table, table.news_ids()[0]))
        classes = {v: (NORMAL if i % 2 else SUSCEPTIBLE)
                   for i, v in enumerate(sorted(net.nodes))}
        flipped = {v: (SUSCEPTIBLE if c == NORMAL else NORMAL)
                   for v, c in classes.items()}
        before = census(net, FixedLabels(classes))
        after = census(net, FixedLabels(flipped))
        for name in TRIAD_CLASSES:
            assert after.class_counts[flip(name)] == before.class_counts[name]


def test_enumeration_order_independent():
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d"), ("a", "d")]
    n1 = _net(edges)
    n2 = _net(list(reversed(edges)))
    assert _triangles({"n1": n1})[1].total.tolist() == _triangles({"n1": n2})[1].total.tolist() \
        == [id_enumerate_triangles(n1).total] == [4]
    model = FixedLabels({"a": SUSCEPTIBLE})
    assert census(n1, model).class_counts == census(n2, model).class_counts


def _static_block(edges, nodes):
    """The label-free features of one network spread by every node."""
    graph = graph_with_users(edges, nodes)
    table = EngagementTable.from_records(graph, {("n1", v): 1 for v in nodes}, {"n1": "fake"})
    return dict(zip(STATIC_NAMES, FeatureExtractor.build(graph, table).static_block[0].tolist()))


def test_triad_features_density():
    # the triangle totals are label-free: the static block holds them, and
    # triad_features adds only the per-class counts and proportions
    static = _static_block([("a", "b"), ("b", "c"), ("a", "c")], "abc")
    assert static["triad_density"] == 1.0
    assert static["n_triangles"] == 1.0
    assert static["triangles_per_spreader"] == pytest.approx(1 / 3)
    feats = triad_features(_net([("a", "b"), ("b", "c"), ("a", "c")]), FixedLabels({}))
    assert sorted(feats) == sorted(f"{kind}_triad_{name}" for kind in ("n", "pct")
                                   for name in TRIAD_CLASSES)


def test_triad_features_degenerate_denominator():
    static = _static_block([("a", "b")], "ab")
    assert static["triad_density"] == 0.0


def test_proportions_sum_to_one_when_classified():
    for seed in range(8):
        graph, table = random_corpus(seed)
        net = id_network(graph.users, build_network(graph, table, table.news_ids()[0]))
        model = FixedLabels({v: (NORMAL if i % 2 else SUSCEPTIBLE)
                             for i, v in enumerate(sorted(net.nodes))})
        cens = census(net, model)
        feats = triad_features(net, model)
        assert feats == oracle_triad_features(oracle_census(net, model))
        total = sum(feats[f"pct_triad_{name}"] for name in TRIAD_CLASSES)
        if cens.classified_total():
            assert total == pytest.approx(1.0, abs=1e-12)
        else:
            assert total == 0.0


def _oriented_roles(users, table, triangles) -> list:
    """Per network, the sorted (kind, ids) of its oriented triangles; `users`
    are the ids by rank."""
    users = [users[r] for r in table.rank.tolist()]
    out = [[] for _ in table.order]
    for t, cyclic, roles in zip(triangles.network.tolist(), triangles.cyclic.tolist(),
                                triangles.roles.tolist()):
        out[t].append(("cyclic" if cyclic else "transitive", tuple(users[k] for k in roles)))
    return [sorted(kinds) for kinds in out]


def assert_triangles_equal_oracle(networks: dict):
    """Totals, reciprocal counts and oriented-role multisets, network by network."""
    table, triangles = _triangles(networks)
    oracle = [id_enumerate_triangles(networks[news]) for news in table.order]
    assert triangles.total.tolist() == [index.total for index in oracle]
    assert _reciprocal(triangles).tolist() == [index.reciprocal for index in oracle]
    assert _oriented_roles(rank_networks(networks)[0], table, triangles) \
        == [sorted(index.oriented) for index in oracle]
    assert triangles.roles.shape == (triangles.network.size, 3)
    assert triangles.cyclic.shape == triangles.network.shape


@pytest.mark.parametrize("seed", range(30))
def test_triangles_equal_the_id_oracle_on_random_corpora(seed):
    graph, table = random_corpus(seed)
    assert_triangles_equal_oracle(id_networks(graph.users, build_all_networks(graph, table)))


def test_triangles_equal_the_id_oracle_on_a_synthetic_corpus(small_strong_extractor):
    ex = small_strong_extractor
    networks = id_networks(ex.graph.users, ex.networks)
    assert sum(index.total for index in map(id_enumerate_triangles, networks.values())) > 50
    assert_triangles_equal_oracle(networks)
    table = ex.node_table
    assert _oriented_roles(ex.graph.users, table, table.triangles) \
        == _oriented_roles(rank_networks(networks)[0], *_triangles(networks))


def _complete(nodes, both_ways):
    return [(u, v) for u in nodes for v in nodes if u < v or (both_ways and u != v)]


@pytest.mark.parametrize("networks", [
    {},
    {"n1": make_network("n1", [], nodes=[])},
    {"n1": make_network("n1", [], nodes=["a"])},
    {"n1": make_network("n1", [], nodes="abcd")},
    {"n1": make_network("n1", _complete("abcde", True))},
    {"n1": make_network("n1", _complete("abcde", False)),
     "n2": make_network("n2", _complete("abcdef", True)),
     "n3": make_network("n3", [], nodes="xy"),
     "n4": make_network("n4", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a")])},
], ids=["no_networks", "empty", "single_node", "edgeless", "all_reciprocal", "mixed"])
def test_triangles_equal_the_id_oracle_on_degenerate_networks(networks):
    assert_triangles_equal_oracle(networks)


def test_all_reciprocal_triangles_are_not_oriented():
    _, triangles = _triangles({"n1": make_network("n1", _complete("abcde", True))})
    assert triangles.total.tolist() == _reciprocal(triangles).tolist() == [10]
    assert triangles.roles.shape == (0, 3)

