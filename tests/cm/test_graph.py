"""Unit tests for CM graph compilation."""

import pickle

import pytest

from repro.exceptions import ConceptualModelError
from repro.cm import (
    CMGraph,
    ConceptualModel,
    ConnectionCategory,
    INVERSE_MARK,
    attribute_node_id,
)


@pytest.fixture
def model() -> ConceptualModel:
    cm = ConceptualModel("books")
    cm.add_class("Person", attributes=["pname"], key=["pname"])
    cm.add_class("Book", attributes=["bid"], key=["bid"])
    cm.add_class("Author")
    cm.add_relationship("writes", "Person", "Book", "0..*", "1..*")
    cm.add_relationship("favourite", "Person", "Book", "0..1", "0..*")
    cm.add_isa("Author", "Person")
    return cm


@pytest.fixture
def graph(model) -> CMGraph:
    return CMGraph(model)


class TestNodes:
    def test_class_nodes(self, graph):
        assert graph.class_nodes() == ("Person", "Book", "Author")

    def test_attribute_nodes(self, graph):
        assert graph.attribute_nodes() == ("Book.bid", "Person.pname")

    def test_node_kind_predicates(self, graph):
        assert graph.is_class_node("Person")
        assert not graph.is_class_node("Person.pname")
        assert graph.is_attribute_node("Person.pname")
        assert not graph.is_attribute_node("Person")
        assert not graph.has_node("Ghost")
        assert not graph.is_class_node("Ghost")
        assert not graph.is_attribute_node("Ghost")
        assert not graph.is_reified("Ghost")

    def test_attribute_owner(self, graph):
        assert graph.attribute_owner(attribute_node_id("Person", "pname")) == "Person"
        with pytest.raises(ConceptualModelError):
            graph.attribute_owner("Person")

    def test_size(self, graph):
        assert graph.size() == (3, 2)

    def test_reified_marker(self):
        cm = ConceptualModel("m")
        cm.add_class("A")
        cm.add_reified_relationship("R", roles={"r1": "A"})
        graph = CMGraph(cm)
        assert graph.is_reified("R")
        assert not graph.is_reified("A")


class TestEdges:
    def test_forward_and_inverse_materialized(self, graph):
        forward = graph.edge("Person", "writes")
        inverse = graph.edge("Book", "writes" + INVERSE_MARK)
        assert forward.target == "Book"
        assert inverse.target == "Person"
        assert inverse.is_inverse
        assert forward.base_name == inverse.base_name == "writes"

    def test_functional_flags(self, graph):
        assert not graph.edge("Person", "writes").is_functional
        # writes is total on the book side (1..*): its inverse is not
        # functional either.
        assert not graph.edge("Book", "writes" + INVERSE_MARK).is_functional
        assert graph.edge("Person", "favourite").is_functional
        assert not graph.edge("Book", "favourite" + INVERSE_MARK).is_functional

    def test_isa_edges(self, graph):
        isa = graph.edge("Author", "isa")
        assert isa.is_isa and isa.is_functional
        assert isa.forward_card.is_total
        inverse = graph.edge("Person", "isa" + INVERSE_MARK)
        assert inverse.is_isa and inverse.is_inverse
        assert inverse.is_functional  # 0..1

    def test_attribute_edges_functional(self, graph):
        edge = graph.attribute_edge("Person", "pname")
        assert edge.is_attribute and edge.is_functional
        assert edge.target == "Person.pname"

    def test_edges_from_excludes_attributes_by_default(self, graph):
        labels = {e.label for e in graph.edges_from("Person")}
        assert "pname" not in labels
        assert {"writes", "favourite", "isa" + INVERSE_MARK} == labels

    def test_edges_from_functional_only(self, graph):
        labels = {e.label for e in graph.functional_edges_from("Person")}
        assert labels == {"favourite", "isa" + INVERSE_MARK}

    def test_edges_from_with_attributes(self, graph):
        labels = {
            e.label for e in graph.edges_from("Person", include_attributes=True)
        }
        assert "pname" in labels

    def test_edges_between(self, graph):
        labels = [e.label for e in graph.edges_between("Person", "Book")]
        assert labels == ["favourite", "writes"]
        assert graph.edges_between("Book", "Author") == ()
        assert graph.edges_between("Ghost", "Person") == ()
        assert graph.edges_between("Person", "Ghost") == ()

    def test_edge_lookup_unknown_raises(self, graph):
        with pytest.raises(ConceptualModelError):
            graph.edge("Person", "ghost")
        with pytest.raises(ConceptualModelError, match="no edge labeled"):
            graph.edge("Ghost", "writes")
        with pytest.raises(ConceptualModelError, match="toward 'Author'"):
            graph.edge("Person", "writes", "Author")
        with pytest.raises(ConceptualModelError):
            graph.edges_from("Ghost")

    def test_edge_reversed_round_trips(self, graph):
        edge = graph.edge("Person", "writes")
        assert edge.reversed().reversed() == edge

    def test_edge_category(self, graph):
        assert graph.edge("Person", "writes").category is ConnectionCategory.MANY_MANY
        assert graph.edge("Person", "favourite").category is ConnectionCategory.MANY_ONE
        assert (
            graph.edge("Book", "favourite" + INVERSE_MARK).category
            is ConnectionCategory.ONE_MANY
        )


class TestBehaviourPins:
    """Exact orders and errors that callers and caches depend on."""

    def test_edges_in_insertion_order(self, graph):
        # Grouped by source node (node insertion order); within a source,
        # by target in the order it was first linked, then by label.
        assert [(e.source, e.label, e.target) for e in graph.edges()] == [
            ("Person", "pname", "Person.pname"),
            ("Person", "writes", "Book"),
            ("Person", "favourite", "Book"),
            ("Person", "isa" + INVERSE_MARK, "Author"),
            ("Book", "bid", "Book.bid"),
            ("Book", "writes" + INVERSE_MARK, "Person"),
            ("Book", "favourite" + INVERSE_MARK, "Person"),
            ("Author", "isa", "Person"),
        ]

    def test_ambiguous_isa_lookup_raises(self, model):
        model.add_class("Editor")
        model.add_isa("Editor", "Person")
        graph = CMGraph(model)
        with pytest.raises(ConceptualModelError, match="ambiguous"):
            graph.edge("Person", "isa" + INVERSE_MARK)
        edge = graph.edge("Person", "isa" + INVERSE_MARK, "Editor")
        assert edge.target == "Editor" and edge.is_inverse

    def test_pickle_round_trip(self, graph):
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.size() == graph.size()
        assert list(clone.edges()) == list(graph.edges())
        for node in graph.class_nodes() + graph.attribute_nodes():
            assert clone.edges_from(
                node, include_attributes=True
            ) == graph.edges_from(node, include_attributes=True)


class TestRendering:
    def test_describe(self, graph):
        text = graph.describe()
        assert "Person" in text
        assert "writes" in text
        # Inverse edges are not repeated in the description.
        assert "writes" + INVERSE_MARK not in text

    def test_str_of_edges_marks_functionality(self, graph):
        assert "->-" in str(graph.edge("Person", "favourite"))
        assert "->-" not in str(graph.edge("Person", "writes"))
