import random

import pytest

from newsnet.corpus import EngagementTable, SocialGraph
from newsnet.diffusion import DiffusionNetwork, build_network
from newsnet.features import FeatureExtractor
from newsnet.susceptibility import BY_FREQUENCY, BY_NEWS, NORMAL, SUSCEPTIBLE, UNKNOWN
from newsnet.triads import TRIAD_CLASSES, enumerate_triangles

from oracles import (TriadCensus, array_dynamic_rows, brute_census, random_corpus,
                     triad_features as oracle_triad_features)
from oracles import census as oracle_census


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


def census(net, model) -> TriadCensus:
    """`triads.census` of one network under `model`, with its enumeration's totals."""
    index = enumerate_triangles(net)
    feats = triad_features(net, model)
    counts = {name: int(feats[f"n_triad_{name}"]) for name in TRIAD_CLASSES}
    return TriadCensus(total=index.total, class_counts=counts, reciprocal=index.reciprocal,
                       unknown=len(index.oriented) - sum(counts.values()))


def _net(edges, nodes=None):
    nodes = frozenset(nodes or {u for e in edges for u in e})
    return DiffusionNetwork(news_id="n1", label="fake", nodes=nodes,
                            edges=frozenset(edges), counts={u: 1 for u in nodes})


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
        net = build_network(graph, table, news)
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
        net = build_network(graph, table, table.news_ids()[0])
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
        net = build_network(graph, table, table.news_ids()[0])
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
    assert enumerate_triangles(n1).total == enumerate_triangles(n2).total == 4
    model = FixedLabels({"a": SUSCEPTIBLE})
    assert census(n1, model).class_counts == census(n2, model).class_counts


def _static_block(edges, nodes):
    """The label-free features of one network spread by every node."""
    graph = SocialGraph.from_edges(edges, nodes=nodes)
    table = EngagementTable.from_records({("n1", v): 1 for v in nodes}, {"n1": "fake"})
    return FeatureExtractor.build(graph, table)._static_features("n1")


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
        net = build_network(graph, table, table.news_ids()[0])
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
