"""Distance-oracle caching and invalidation."""

from __future__ import annotations

import pytest

import repro.perf as perf
from repro.cm import CMGraph, ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.discovery import minimal_functional_trees
from repro.discovery.mapper import SemanticMapper
from repro.discovery.options import DiscoveryOptions
from repro.perf.index import GraphIndex
from repro.semantics import design_schema


def _cm(fast_path: bool) -> ConceptualModel:
    """A diamond where mutation flips which branch is functional."""
    cm = ConceptualModel("diamond")
    for name in ("A", "B", "C", "D"):
        cm.add_class(
            name, attributes=[name.lower()], key=[name.lower()]
        )
    upper = "1..1" if fast_path else "0..*"
    lower = "0..*" if fast_path else "1..1"
    cm.add_relationship("ab", "A", "B", upper, "0..*")
    cm.add_relationship("bd", "B", "D", upper, "0..*")
    cm.add_relationship("ac", "A", "C", lower, "0..*")
    cm.add_relationship("cd", "C", "D", lower, "0..*")
    return cm


def setup_function(_):
    GraphIndex.clear_registry()


def test_oracle_table_computed_once_per_key():
    index = GraphIndex.of(CMGraph(_cm(True)))
    calls = []

    def compute():
        calls.append(1)
        return {"D": 0}

    first = index.oracle_table(("bd", "D", None), compute)
    second = index.oracle_table(("bd", "D", None), compute)
    assert first is second
    assert calls == [1]


def test_clear_caches_drops_oracle_tables():
    graph = CMGraph(_cm(True))
    index = GraphIndex.of(graph)
    index.oracle_table(("bd", "D", None), lambda: {"D": 0})
    perf.clear_caches()
    calls = []
    rebuilt = GraphIndex.of(graph)
    rebuilt.oracle_table(("bd", "D", None), lambda: calls.append(1) or {})
    assert calls == [1]


def test_mutated_graph_after_clear_caches_gets_fresh_distances():
    """Rediscovery on an edited CM must never see the old CM's tables.

    The mutation flips which diamond branch is functional, so a stale
    backward-distance table would qualify the wrong branch's root and
    change the discovered trees.
    """
    before = CMGraph(_cm(True))
    warm = minimal_functional_trees(before, {"A", "D"})
    assert warm  # The oracle tables for `before` are now cached.

    perf.clear_caches()
    after = CMGraph(_cm(False))
    oracle_trees = minimal_functional_trees(after, {"A", "D"})
    perf.clear_caches()
    fresh_trees = minimal_functional_trees(CMGraph(_cm(False)), {"A", "D"})
    assert [t.edges for t in oracle_trees] == [t.edges for t in fresh_trees]
    # The flipped branch really changed the answer vs the warm graph.
    assert {e.label for t in oracle_trees for e in t.edges} == {"ac", "cd"}
    assert {e.label for t in warm for e in t.edges} == {"ab", "bd"}


def _scenario():
    source = design_schema(_cm(True), "src")
    target = design_schema(_cm(True), "tgt")
    correspondences = CorrespondenceSet.parse(["a.a <-> a.a", "d.d <-> d.d"])
    return source.semantics, target.semantics, correspondences


def test_guided_search_runs_by_default():
    source, target, correspondences = _scenario()
    perf.clear_caches()
    result = SemanticMapper(source, target, correspondences).discover()
    assert result.stats.get("oracle_sweeps", 0) > 0


def test_new_options_keep_default_fingerprint():
    assert DiscoveryOptions().to_pairs() == ()
    # The oracle has no off switch any more: the key is unknown.
    with pytest.raises(ValueError, match="distance_oracle"):
        DiscoveryOptions.from_mapping({"distance_oracle": False})


def _hops_to(graph, end):
    """Hop distance of every class node from which ``end`` is reachable."""
    hops = {end: 0}
    frontier = [end]
    while frontier:
        reached = []
        for node in frontier:
            # Every link is stored in both directions, so predecessors
            # are out-edge targets.
            for edge in graph.edges_from(node):
                if edge.target not in hops:
                    hops[edge.target] = hops[node] + 1
                    reached.append(edge.target)
        frontier = reached
    return hops


def test_lossy_tables_stay_inside_the_search_horizon(monkeypatch):
    """A lossy search capped at ``max_path_edges`` edges can complete
    only from nodes within ``max_path_edges - 1`` hops of its end, so
    its bound tables hold no other node."""
    from repro.datasets import synthetic
    from repro.discovery import steiner

    tables = []
    original = steiner._lossy_bound_tables

    def capture(index, end, *args):
        result = original(index, end, *args)
        tables.append((index, end, result))
        return result

    monkeypatch.setattr(steiner, "_lossy_bound_tables", capture)
    source, target, correspondences = synthetic.scale_point(
        "reified_web", 60
    )[1]
    perf.clear_caches()
    assert SemanticMapper(source, target, correspondences).discover()
    assert tables
    horizon = DiscoveryOptions().max_path_edges - 1
    graphs = {GraphIndex.of(s.graph): s.graph for s in (source, target)}
    for index, end, (cost_to_end, reversals_to_end) in tables:
        hops = _hops_to(graphs[index], end)
        assert max(hops.values()) > horizon  # the graph reaches further
        nodes = set(cost_to_end) | {node for node, _ in reversals_to_end}
        assert all(hops[node] <= horizon for node in nodes), end


def test_unbounded_max_edges_is_bounded_by_the_graph():
    """``max_edges`` has no upper limit. The lossy search's horizon must
    cost what the graph holds, not what the cap says: at 10**12 every
    pair of classes finds the same paths as at 50 (longer than any
    simple path of these schemas), in about the same time."""
    import itertools
    import threading

    from repro.datasets.registry import load_all_datasets
    from repro.discovery import minimally_lossy_paths

    graphs = [
        pair.source.graph
        for pair in load_all_datasets()
        if pair.name in ("Mondial", "Network")
    ]
    found: dict[int, list] = {}

    def run() -> None:
        for max_edges in (50, 10**12):
            found[max_edges] = [
                minimally_lossy_paths(graph, start, end, max_edges=max_edges)
                for graph in graphs
                for start, end in itertools.permutations(
                    sorted(graph.class_nodes()), 2
                )
            ]

    # A daemon thread, so a regression fails the test instead of
    # hanging the suite.
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "lossy search did not finish in 60 s"
    assert found[10**12] == found[50]
    assert any(found[50])
