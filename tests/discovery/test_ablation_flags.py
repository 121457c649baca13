"""Tests for the mapper's ablation flags (filter on/off behavior)."""

from repro.cm import ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.datasets.paper_examples import (
    bookstore_example,
    employee_example,
    partof_example,
)
from repro.discovery import DiscoveryOptions, SemanticMapper
from repro.semantics import design_schema


def discover(scenario, **flags):
    return SemanticMapper(
        scenario.source,
        scenario.target,
        scenario.correspondences,
        options=DiscoveryOptions(**flags),
    ).discover()


def source_tables(candidate):
    return {atom.bare_predicate for atom in candidate.source_query.body}


class TestPartOfFlag:
    def test_default_filters_plain_candidate(self):
        scenario = partof_example(target_is_partof=True)
        result = discover(scenario)
        assert len(result) == 1
        assert "chairof" in source_tables(result.best())

    def test_disabled_keeps_both(self):
        scenario = partof_example(target_is_partof=True)
        result = discover(scenario, use_partof_filter=False)
        assert len(result) == 2
        assert any("deanof" in source_tables(c) for c in result)


class TestDisjointnessFlag:
    def test_default_eliminates_empty_class_merge(self):
        scenario = employee_example(disjoint_subclasses=True)
        result = discover(scenario)
        assert not any(
            {"engineer", "programmer"} <= source_tables(c) for c in result
        )

    def test_disabled_emits_unsatisfiable_merge(self):
        scenario = employee_example(disjoint_subclasses=True)
        result = discover(scenario, use_disjointness_filter=False)
        assert any(
            {"engineer", "programmer"} <= source_tables(c) for c in result
        )


def functional_target_scenario():
    """Example 1.1's hypothetical: ``hasBookSoldAt`` with upper bound 1."""
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


def full_candidates(use_filter):
    source, target, correspondences = functional_target_scenario()
    result = SemanticMapper(
        source,
        target,
        correspondences,
        options=DiscoveryOptions(use_cardinality_filter=use_filter),
    ).discover()
    return [c for c in result if len(c.covered) == 2]


class TestCardinalityFlag:
    def test_default_blocks_many_many_into_functional(self):
        assert full_candidates(True) == []

    def test_disabled_lets_the_composition_through(self):
        assert len(full_candidates(False)) >= 1


class TestFlagsDoNotChangeCleanCases:
    def test_overlapping_siblings_unaffected(self):
        scenario = employee_example(disjoint_subclasses=False)
        default = discover(scenario)
        ablated = discover(
            scenario,
            use_partof_filter=False,
            use_disjointness_filter=False,
        )
        assert [str(c.source_query) for c in default] == [
            str(c.source_query) for c in ablated
        ]
