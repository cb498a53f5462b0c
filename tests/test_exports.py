"""Smoke tests for the optional CSV export surfaces of each module."""

from newsnet.diffusion import build_network, write_network
from newsnet.louvain import global_communities, write_communities
from newsnet.susceptibility import fit, write_scores
from newsnet.triads import census, write_census

from oracles import random_corpus


def test_network_dump(tmp_path):
    graph, table = random_corpus(0)
    net = build_network(graph, table, table.news_ids()[0])
    write_network(net, tmp_path / "nodes.csv", tmp_path / "edges.csv")
    nodes = (tmp_path / "nodes.csv").read_text().strip().splitlines()
    assert nodes[0] == "user_id,count"
    assert len(nodes) == net.n_nodes + 1
    edges = (tmp_path / "edges.csv").read_text().strip().splitlines()
    assert edges[0] == "source,target"
    assert len(edges) == net.n_edges + 1


def test_susceptibility_export(tmp_path):
    graph, table = random_corpus(1)
    model = fit(table, table.news_ids(), "by_news", 0.5)
    path = tmp_path / "scores.csv"
    write_scores(model, path, table.users())
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "user_id,score,class"
    assert len(lines) == len(table.users()) + 1


def test_community_export(tmp_path):
    graph, _ = random_corpus(3)
    assign = global_communities(graph, seed=1)
    path = tmp_path / "communities.csv"
    write_communities(assign, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,community"
    assert len(lines) == graph.n_nodes + 1


def test_census_export(tmp_path):
    graph, table = random_corpus(4)
    net = build_network(graph, table, table.news_ids()[0])
    model = fit(table, table.news_ids(), "by_news", 0.5)
    path = tmp_path / "census.csv"
    write_census(census(net, model), net.news_id, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "news_id,class,count"
    assert len(lines) == 12 + 3 + 1  # classes + diagnostics + total + header

