"""Unit tests for the outer-join hints (the paper's Section 6)."""

import pytest

from repro.datasets.paper_examples import employee_example, project_example
from repro.discovery import discover_mappings
from repro.mappings.refinement import optional_classes, optional_tables
from repro.relational import Instance


@pytest.fixture(scope="module")
def employee_candidate():
    scenario = employee_example()
    result = discover_mappings(
        scenario.source, scenario.target, scenario.correspondences
    )
    return scenario, result.best()


class TestOptionalHints:
    def test_isa_down_edges_are_optional(self, employee_candidate):
        _, candidate = employee_candidate
        assert candidate.source_optional_tables == {"engineer", "programmer"}

    def test_mandatory_chain_has_no_hints(self):
        scenario = project_example()
        result = discover_mappings(
            scenario.source, scenario.target, scenario.correspondences
        )
        # controlledBy and hasManager are total (1..1): nothing optional.
        assert result.best().source_optional_tables == frozenset()

    def test_optional_classes_cover_subtrees(self):
        from repro.cm import CMGraph, ConceptualModel
        from repro.discovery.csg import CSG
        from repro.semantics.stree import (
            STreeEdge,
            STreeNode,
            SemanticTree,
        )

        cm = ConceptualModel("m")
        for name in ["A", "B", "C"]:
            cm.add_class(name, attributes=[name.lower()], key=[name.lower()])
        cm.add_relationship("maybe", "A", "B", "0..1", "0..*")
        cm.add_relationship("always", "B", "C", "1..1", "0..*")
        graph = CMGraph(cm)
        a, b, c = STreeNode("A"), STreeNode("B"), STreeNode("C")
        tree = SemanticTree(
            a,
            [
                STreeEdge(a, b, graph.edge("A", "maybe")),
                STreeEdge(b, c, graph.edge("B", "always")),
            ],
        )
        csg = CSG(tree, (("A", a), ("C", c)), "test")
        # B is optional (min 0) and drags its whole subtree (C) along.
        assert optional_classes(csg) == {"B", "C"}


class TestOuterJoinAlgebra:
    """Why the hints matter: on Example 1.2's instance the inner-join
    plan keeps only the people who are both engineer and programmer."""

    @pytest.fixture
    def employee_instance(self, employee_candidate):
        scenario, _ = employee_candidate
        instance = Instance(scenario.source.schema)
        instance.add_all("employee", [("1", "ann"), ("2", "bob"), ("3", "cal")])
        instance.add_all("engineer", [("1", "ann", "siteA"), ("2", "bob", "siteB")])
        instance.add_all(
            "programmer", [("1", "ann", "acct1"), ("3", "cal", "acct3")]
        )
        return instance

    def test_inner_join_drops_singletons(
        self, employee_candidate, employee_instance
    ):
        from repro.mappings import query_to_algebra

        scenario, candidate = employee_candidate
        plan = query_to_algebra(
            candidate.source_query, scenario.source.schema
        )
        rows = plan.evaluate(employee_instance).sorted_rows()
        assert len(rows) == 1  # only ann is both
