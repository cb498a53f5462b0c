import time

import pytest

from newsnet.corpus import corpus_stats
from newsnet.diffusion import build_all_networks
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, generate

from oracles import string_graph


def test_null_corpus_classes_same_distribution(null_report):
    assert abs(null_report.accuracy - 0.5) <= 0.15


def test_spreader_ratio_planted():
    spec = SyntheticSpec(n_users=150, news_per_class=60, seed=5, spreader_ratio=3.0)
    corpus = generate(spec)
    networks = build_all_networks(corpus.graph, corpus.table)
    fake_sizes = [net.n_nodes for net in networks.values() if net.label == "fake"]
    true_sizes = [net.n_nodes for net in networks.values() if net.label == "true"]
    assert len(fake_sizes) + len(true_sizes) >= 100
    ratio = (sum(fake_sizes) / len(fake_sizes)) / (sum(true_sizes) / len(true_sizes))
    assert ratio == pytest.approx(3.0, rel=0.2)


def test_density_ratio_plants_denser_fakes():
    spec = SyntheticSpec(n_users=150, news_per_class=40, seed=8, density_ratio=4.0)
    corpus = generate(spec)
    networks = build_all_networks(corpus.graph, corpus.table)

    def mean_density(label):
        values = []
        for net in networks.values():
            if net.label != label or net.n_nodes < 2:
                continue
            pairs = net.n_nodes * (net.n_nodes - 1) / 2
            values.append(net.n_edges / pairs)
        return sum(values) / len(values)

    assert mean_density("fake") > mean_density("true")


def test_engagement_ratio_planted():
    spec = SyntheticSpec(n_users=120, news_per_class=50, seed=2, engagement_ratio=3.0)
    corpus = generate(spec)
    by_label = {"fake": [], "true": []}
    for entry in corpus.truth["news"]:
        by_label[entry["label"]].append(entry["total_engagements"]
                                        / entry["n_spreaders"])
    mean_fake = sum(by_label["fake"]) / len(by_label["fake"])
    mean_true = sum(by_label["true"]) / len(by_label["true"])
    assert mean_fake > 1.5 * mean_true


def test_generation_speed():
    start = time.time()
    generate(SyntheticSpec(n_users=200, news_per_class=50, seed=0, **STRONG_EFFECTS))
    assert time.time() - start < 5.0


def test_infeasible_spec_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        generate(SyntheticSpec(n_users=10, base_spreaders=12, spreader_ratio=3.0))
    with pytest.raises(ValueError, match=">= 1"):
        generate(SyntheticSpec(spreader_ratio=0.5))


def test_generation_deterministic():
    spec = SyntheticSpec(n_users=60, news_per_class=5, seed=31, **STRONG_EFFECTS)
    c1 = generate(spec)
    c2 = generate(spec)
    assert c1.graph == c2.graph
    assert c1.table == c2.table
    assert c1.truth == c2.truth


def test_every_user_has_an_edge():
    corpus = generate(SyntheticSpec(n_users=60, news_per_class=5, seed=1,
                                    edge_prob=0.002))
    graph = string_graph(corpus.graph)
    endpoints = {u for e in graph.edges for u in e}
    assert endpoints == graph.nodes
    assert corpus_stats(corpus.graph, corpus.table)["n_users"] == 60
