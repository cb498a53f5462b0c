import random
import time

import numpy as np
import pytest

from newsnet.corpus import FAKE, TRUE, corpus_stats
from newsnet.diffusion import build_all_networks
from newsnet.synth import STRONG_EFFECTS, SyntheticSpec, _draw_spreaders, generate

from oracles import draw_spreaders, string_graph


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


def _draw_case(case, seed):
    """The arguments of one spreader draw: a random population and follow
    graph, shaped so that the draw takes the path `case` names."""
    r = random.Random(seed)
    n = r.randint(2, 30)
    users = [f"u{i:02d}" for i in range(n)]
    pool = r.sample(users, r.randint(1, 2) if case == "small_pool" else r.randint(1, n))
    others = sorted(set(users) - set(pool))
    p = 0.0 if case == "stranded_walk" and seed % 2 else r.choice([0.0, 0.05, 0.2, 0.6])
    undirected: dict = {}
    for i, u in enumerate(users):
        for v in users[i + 1:]:
            if r.random() < p:
                undirected.setdefault(u, []).append(v)
                undirected.setdefault(v, []).append(u)
    depth = {"walk": r.choice([1.5, 2.0, 10.0]), "stranded_walk": 1e12}.get(case, 1.0)
    label = {"true": TRUE, "unplanted": r.choice([FAKE, TRUE])}.get(case, FAKE)
    size = {"oversized": n + r.randint(1, 5),
            "small_pool": r.randint(len(pool) + 1, n + 2)}.get(case, r.randint(1, n))
    return (SyntheticSpec(depth_effect=depth), size, label, pool, others, undirected,
            case != "unplanted")


@pytest.mark.parametrize("case", ["unplanted", "walk", "true", "small_pool",
                                  "oversized", "stranded_walk", "pool_biased"])
def test_spreader_draw_matches_the_two_loop_oracle(case):
    stopped = 0
    for seed in range(200):
        spec, size, *rest = _draw_case(case, seed)
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        picks = _draw_spreaders(spec, rng, size, *rest)
        assert picks == draw_spreaders(spec, oracle_rng, size, *rest)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert len(set(picks)) == len(picks) <= size
        stopped += len(picks) < size
    # only a story larger than its population runs out of users
    assert bool(stopped) == (case in ("oversized", "small_pool"))
