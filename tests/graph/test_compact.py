"""Unit tests for the frozen CSR graph views (CompactGraph/CompactDigraph).

Every metric kernel routes through the compact representation, so these
tests pin the parity contract: freezing a mutable graph must preserve
node order, edges, degrees and every derived metric bit-for-bit.
"""

import random

import pytest

from repro.graph import (
    CompactDigraph,
    CompactGraph,
    DiGraph,
    Graph,
    average_clustering,
    average_shortest_path_length,
    bfs_distances,
    connected_components,
    local_clustering,
    raw_reciprocity,
    small_world_metrics,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    g = Graph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j)
    return g


def random_digraph(n, p, seed):
    rng = random.Random(seed)
    g = DiGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                g.add_edge(i, j)
    return g


class TestCompactGraph:
    def test_freeze_preserves_shape(self):
        g = random_graph(40, 0.15, seed=7)
        c = g.freeze()
        assert isinstance(c, CompactGraph)
        assert c.num_nodes == g.num_nodes
        assert c.num_edges == g.num_edges
        assert list(c.nodes()) == list(g.nodes())
        assert len(c) == len(g)

    def test_edges_and_neighbors_match(self):
        g = random_graph(30, 0.2, seed=11)
        c = g.freeze()
        assert set(map(frozenset, c.edges())) == set(map(frozenset, g.edges()))
        assert len(list(c.edges())) == len(list(g.edges()))
        for node in g.nodes():
            assert sorted(c.neighbors(node)) == sorted(g.neighbors(node))
            assert c.degree(node) == g.degree(node)

    def test_has_edge_and_contains(self):
        g = Graph([(1, 2), (2, 3)])
        c = g.freeze()
        assert c.has_edge(1, 2) and c.has_edge(2, 1)
        assert not c.has_edge(1, 3)
        assert 2 in c and 9 not in c

    def test_density_identical(self):
        g = random_graph(25, 0.3, seed=3)
        assert g.freeze().density() == g.density()

    def test_freeze_idempotent(self):
        c = random_graph(10, 0.3, seed=1).freeze()
        assert c.freeze() is c

    def test_thaw_round_trip(self):
        g = random_graph(20, 0.25, seed=5)
        back = g.freeze().thaw()
        assert list(back.nodes()) == list(g.nodes())
        assert set(map(frozenset, back.edges())) == set(
            map(frozenset, g.edges())
        )

    def test_empty_and_single_node(self):
        assert Graph().freeze().num_nodes == 0
        g = Graph()
        g.add_node("x")
        c = g.freeze()
        assert c.num_nodes == 1 and c.num_edges == 0
        assert c.neighbors("x") == ()


class TestCompactDigraph:
    def test_freeze_preserves_shape(self):
        g = random_digraph(25, 0.1, seed=9)
        c = g.freeze()
        assert isinstance(c, CompactDigraph)
        assert c.num_nodes == g.num_nodes
        assert c.num_edges == g.num_edges
        assert list(c.nodes()) == list(g.nodes())

    def test_successors_predecessors_degrees(self):
        g = random_digraph(20, 0.15, seed=13)
        c = g.freeze()
        for node in g.nodes():
            assert sorted(c.successors(node)) == sorted(g.successors(node))
            assert sorted(c.predecessors(node)) == sorted(g.predecessors(node))
            assert c.out_degree(node) == g.out_degree(node)
            assert c.in_degree(node) == g.in_degree(node)

    def test_edges_match(self):
        g = random_digraph(15, 0.2, seed=17)
        assert sorted(g.freeze().edges()) == sorted(g.edges())

    def test_thaw_round_trip(self):
        g = random_digraph(12, 0.2, seed=19)
        back = g.freeze().thaw()
        assert sorted(back.edges()) == sorted(g.edges())


class TestKernelParity:
    """Metric kernels return identical values on mutable and frozen input."""

    def test_clustering(self):
        g = random_graph(40, 0.2, seed=23)
        c = g.freeze()
        assert average_clustering(c) == average_clustering(g)
        for node in g.nodes():
            assert local_clustering(c, node) == local_clustering(g, node)

    def test_bfs_and_components(self):
        g = random_graph(40, 0.05, seed=29)
        c = g.freeze()
        src = next(iter(g.nodes()))
        assert bfs_distances(c, src) == bfs_distances(g, src)
        assert connected_components(c) == connected_components(g)

    def test_apl_exact(self):
        g = random_graph(30, 0.15, seed=31)
        assert average_shortest_path_length(
            g.freeze()
        ) == average_shortest_path_length(g)

    def test_reciprocity(self):
        g = random_digraph(25, 0.15, seed=41)
        assert raw_reciprocity(g.freeze()) == raw_reciprocity(g)

    def test_small_world_metrics(self):
        g = random_graph(50, 0.12, seed=47)
        assert small_world_metrics(g, seed=1) == small_world_metrics(
            g.freeze(), seed=1
        )


class TestNetworkxCrossCheck:
    def test_clustering_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = random_graph(30, 0.2, seed=53)
        ng = nx.Graph(list(g.edges()))
        ng.add_nodes_from(g.nodes())
        c = g.freeze()
        assert average_clustering(c) == pytest.approx(
            nx.average_clustering(ng, count_zeros=True)
        )
