"""Distance-oracle caching and invalidation."""

from __future__ import annotations

import pytest

import repro.perf as perf
from repro.cm import CMGraph, ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.discovery import minimal_functional_trees
from repro.discovery.mapper import SemanticMapper
from repro.discovery.options import DiscoveryOptions
from repro.perf import counters
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
    counters.reset()


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
