"""From-scratch graph substrate used by the Magellan analytics.

This subpackage implements every graph primitive the paper's evaluation
needs — directed/undirected graphs, traversal, clustering coefficients,
average path lengths, Garlaschelli-Loffredo edge reciprocity, degree
distributions, and seeded random-graph baselines — without depending on
third-party graph libraries at runtime.  ``networkx`` is used only in the
test suite, to cross-validate these implementations.
"""

from repro.graph.digraph import DiGraph, Graph
from repro.graph.compact import CompactDigraph, CompactGraph
from repro.graph.traversal import (
    average_shortest_path_length,
    bfs_distances,
    connected_components,
    largest_component,
)
from repro.graph.clustering import average_clustering, local_clustering
from repro.graph.reciprocity import (
    edge_reciprocity,
    raw_reciprocity,
    reciprocity_from_edges,
)
from repro.graph.degree import (
    DegreeDistribution,
    degree_distribution,
    powerlaw_fit,
)
from repro.graph.random_graphs import gnm_random_graph, gnp_random_graph
from repro.graph.smallworld import SmallWorldMetrics, small_world_metrics

__all__ = [
    "CompactDigraph",
    "CompactGraph",
    "DiGraph",
    "Graph",
    "average_shortest_path_length",
    "bfs_distances",
    "connected_components",
    "largest_component",
    "average_clustering",
    "local_clustering",
    "edge_reciprocity",
    "raw_reciprocity",
    "reciprocity_from_edges",
    "DegreeDistribution",
    "degree_distribution",
    "powerlaw_fit",
    "gnm_random_graph",
    "gnp_random_graph",
    "SmallWorldMetrics",
    "small_world_metrics",
]
