"""Unit tests for GraphIndex sharing and caching."""

from __future__ import annotations

import gc

import repro.perf as perf
from repro.cm import CMGraph, ConceptualModel
from repro.perf.index import GraphIndex


def _graph() -> CMGraph:
    cm = ConceptualModel("g")
    cm.add_class("A", attributes=["a"], key=["a"])
    cm.add_class("B", attributes=["b"], key=["b"])
    cm.add_class("C", attributes=["c"], key=["c"])
    cm.add_relationship("r", "A", "B", "1..1", "0..*")
    cm.add_relationship("s", "B", "C", "0..*", "0..*")
    return CMGraph(cm)


def setup_function(_):
    GraphIndex.clear_registry()


def test_of_shares_one_index_per_graph():
    graph = _graph()
    assert GraphIndex.of(graph) is GraphIndex.of(graph)
    assert GraphIndex.of(_graph()) is not GraphIndex.of(graph)


def test_adjacency_matches_graph():
    graph = _graph()
    index = GraphIndex.of(graph)
    for node in graph.class_nodes():
        assert index.out_edges(node) == graph.edges_from(node)
        assert index.functional_adjacency[node] == tuple(
            edge for edge in graph.edges_from(node) if edge.is_functional
        )


def test_registry_entry_dies_with_graph():
    graph = _graph()
    GraphIndex.of(graph)
    assert len(GraphIndex._REGISTRY) == 1
    del graph
    gc.collect()
    assert len(GraphIndex._REGISTRY) == 0


def test_clear_caches_drops_registry():
    graph = _graph()
    index = GraphIndex.of(graph)
    perf.clear_caches()
    assert GraphIndex.of(graph) is not index
