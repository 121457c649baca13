"""Unit tests for GraphViz DOT export."""

import pytest

from repro.cm import CMGraph, ConceptualModel, SemanticType
from repro.cm.dot import cm_graph_to_dot


@pytest.fixture
def model() -> ConceptualModel:
    cm = ConceptualModel("books")
    cm.add_class("Person", attributes=["pname"], key=["pname"])
    cm.add_class("Book", attributes=["bid"], key=["bid"])
    cm.add_class("Author")
    cm.add_relationship("writes", "Person", "Book", "0..*", "1..*")
    cm.add_relationship(
        "chapterOf",
        "Book",
        "Book",
        "0..1",
        "0..*",
        semantic_type=SemanticType.PART_OF,
    )
    cm.add_isa("Author", "Person")
    return cm


class TestCMGraphDot:
    def test_valid_digraph_structure(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        assert text.startswith("digraph")
        assert text.endswith("}")
        assert text.count("{") == text.count("}")

    def test_all_classes_rendered(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        for name in model.class_names():
            assert f'"{name}"' in text

    def test_key_attributes_marked(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        assert "_pname_" in text

    def test_relationship_edges_with_cardinalities(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        assert "writes" in text
        assert "1..*/0..*" in text

    def test_isa_rendered_with_empty_arrow(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        assert "arrowhead=empty" in text

    def test_partof_rendered_with_diamond(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        assert "arrowtail=diamond" in text

    def test_inverse_edges_not_duplicated(self, model):
        text = cm_graph_to_dot(CMGraph(model))
        assert "writes⁻" not in text

    def test_reified_marker(self):
        cm = ConceptualModel("m")
        cm.add_class("A", attributes=["a"], key=["a"])
        cm.add_reified_relationship("R", roles={"ra": "A"})
        text = cm_graph_to_dot(CMGraph(cm))
        assert "R◇" in text
