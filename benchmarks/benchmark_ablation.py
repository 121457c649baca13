"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one of the semantic-compatibility filters of
Sections 3.2–3.3 and measures what it costs on the cases built to
exercise it:

* **partOf filter** (Example 1.3) — without it, the ``deanOf``-style
  plain candidate survives next to the partOf one, halving precision on
  ``network-interface-of-device``-like cases;
* **disjointness filter** (Example 1.2 variant) — without it, the
  merging candidate over declared-disjoint siblings (an unsatisfiable
  query) is emitted;
* **cardinality filter** (Example 1.1's hypothetical) — without it, a
  many-many composition is paired with a functional target relationship.
"""

from __future__ import annotations

import pytest

from repro.cm import ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.datasets.paper_examples import (
    bookstore_example,
    employee_example,
    partof_example,
)
from repro.discovery.mapper import SemanticMapper
from repro.discovery.options import DiscoveryOptions
from repro.semantics import design_schema


def discover(scenario, **flags):
    return SemanticMapper(
        scenario.source,
        scenario.target,
        scenario.correspondences,
        options=DiscoveryOptions(**flags),
    ).discover()


class TestPartOfAblation:
    def test_filter_halves_candidates(self, benchmark):
        scenario = partof_example(target_is_partof=True)
        with_filter = discover(scenario)
        without_filter = benchmark.pedantic(
            discover,
            args=(scenario,),
            kwargs={"use_partof_filter": False},
            rounds=3,
            iterations=1,
        )
        assert len(with_filter) == 1
        assert len(without_filter) == 2  # deanOf survives the ablation


class TestDisjointnessAblation:
    def test_filter_removes_unsatisfiable_merge(self, benchmark):
        scenario = employee_example(disjoint_subclasses=True)

        def merging(result):
            return [
                candidate
                for candidate in result
                if {"engineer", "programmer"}
                <= {a.bare_predicate for a in candidate.source_query.body}
            ]

        with_filter = discover(scenario)
        without_filter = benchmark.pedantic(
            discover,
            args=(scenario,),
            kwargs={"use_disjointness_filter": False},
            rounds=3,
            iterations=1,
        )
        assert merging(with_filter) == []
        assert len(merging(without_filter)) == 1  # the empty-class query


def _functional_target_scenario():
    """Example 1.1's hypothetical: hasBookSoldAt with upper bound 1."""
    scenario = bookstore_example()
    target_cm = ConceptualModel("books_target")
    target_cm.add_class("Author", attributes=["aname"], key=["aname"])
    target_cm.add_class("Bookstore", attributes=["sid"], key=["sid"])
    target_cm.add_relationship(
        "hasBookSoldAt", "Author", "Bookstore", "0..1", "0..*"
    )
    target = design_schema(target_cm, "target", merge_functional=False)
    correspondences = CorrespondenceSet.parse(
        [
            "person.pname <-> hasbooksoldat.aname",
            "bookstore.sid <-> hasbooksoldat.sid",
        ]
    )
    return scenario.source, target.semantics, correspondences


class TestCardinalityAblation:
    def test_filter_blocks_incompatible_composition(self, benchmark):
        source, target, correspondences = _functional_target_scenario()

        def run(use_filter: bool):
            return SemanticMapper(
                source,
                target,
                correspondences,
                options=DiscoveryOptions(use_cardinality_filter=use_filter),
            ).discover()

        with_filter = run(True)
        without_filter = benchmark.pedantic(
            run, args=(False,), rounds=3, iterations=1
        )
        full = lambda result: [
            candidate
            for candidate in result
            if len(candidate.covered) == 2
        ]
        assert full(with_filter) == []  # many-many cannot feed functional
        assert len(full(without_filter)) >= 1  # ablation lets it through
