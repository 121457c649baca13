"""Unit tests for schema semantics and LAV view construction."""

import pytest

from repro.cm.graph import CMGraph
from repro.cm.model import ISA_LABEL, ConceptualModel
from repro.datasets.registry import load_all_datasets
from repro.exceptions import SemanticsError
from repro.queries.conjunctive import CM_PREFIX
from repro.relational import Column, RelationalSchema, Table
from repro.semantics import SchemaSemantics, SemanticTree
from repro.semantics.lav import check_tree
from repro.semantics.stree import STreeNode


@pytest.fixture
def semantics(books_model, books_graph):
    schema = RelationalSchema("src")
    schema.add_table(Table("person", ["pname"], ["pname"]))
    schema.add_table(Table("writes", ["pname", "bid"], ["pname", "bid"]))
    schema.add_table(Table("bookstore", ["sid"], ["sid"]))
    trees = {
        "person": SemanticTree.build(
            books_graph, "Person", [], {"pname": "Person.pname"}
        ),
        "writes": SemanticTree.build(
            books_graph,
            "Person",
            [("Person", "writes", "Book")],
            {"pname": "Person.pname", "bid": "Book.bid"},
        ),
        "bookstore": SemanticTree.build(
            books_graph, "Bookstore", [], {"sid": "Bookstore.sid"}
        ),
    }
    return SchemaSemantics(schema, books_graph, trees)


class TestValidation:
    def test_unknown_column_in_tree_rejected(self, books_graph):
        schema = RelationalSchema("s", [Table("person", ["pname"], ["pname"])])
        bad_tree = SemanticTree.build(
            books_graph, "Person", [], {"ghost": "Person.pname"}
        )
        with pytest.raises(SemanticsError):
            SchemaSemantics(schema, books_graph, {"person": bad_tree})

    def test_unknown_table_rejected(self, books_graph):
        schema = RelationalSchema("s")
        tree = SemanticTree.build(books_graph, "Person")
        with pytest.raises(SemanticsError, match="unknown table"):
            SchemaSemantics(schema, books_graph, {"person": tree})

    @staticmethod
    def _writes_tree(model):
        return SemanticTree.build(
            CMGraph(model),
            "Person",
            edges=[("Person", "writes", "Book")],
            columns={"pname": "Person.pname", "bid": "Book.bid"},
        )

    @staticmethod
    def _person_book_model(name):
        cm = ConceptualModel(name)
        cm.add_class("Person", attributes=["pname"], key=["pname"])
        cm.add_class("Book", attributes=["bid"], key=["bid"])
        return cm

    @staticmethod
    def _writes_schema():
        return RelationalSchema(
            "s", [Table("writes", ["pname", "bid"], ["pname", "bid"])]
        )

    def test_foreign_tree_edge_rejected(self):
        """An s-tree built against a richer CM than its schema's graph."""
        rich = self._person_book_model("rich")
        rich.add_relationship("writes", "Person", "Book", "0..*", "1..*")
        poor = self._person_book_model("poor")  # no 'writes'
        with pytest.raises(SemanticsError, match="not an edge of the CM"):
            SchemaSemantics(
                self._writes_schema(),
                CMGraph(poor),
                {"writes": self._writes_tree(rich)},
            )

    def test_edge_with_other_cardinalities_rejected(self):
        """Same label and endpoints is not enough: the edge must be the
        graph's own, cardinalities included."""
        many = self._person_book_model("many")
        many.add_relationship("writes", "Person", "Book", "0..*", "1..*")
        one = self._person_book_model("one")
        one.add_relationship("writes", "Person", "Book", "0..*", "1..1")
        with pytest.raises(SemanticsError, match="not an edge of the CM"):
            SchemaSemantics(
                self._writes_schema(),
                CMGraph(one),
                {"writes": self._writes_tree(many)},
            )

    def test_attribute_of_another_class_rejected(self, books_graph):
        """A tree built directly, not through ``SemanticTree.build``."""
        schema = RelationalSchema("s", [Table("person", ["pname"], ["pname"])])
        person = STreeNode("Person")
        tree = SemanticTree(person, columns={"pname": (person, "bid")})
        with pytest.raises(SemanticsError, match="no attribute 'bid'"):
            SchemaSemantics(schema, books_graph, {"person": tree})

    def test_registered_trees_pass(self):
        for pair in load_all_datasets():
            for semantics in (pair.source, pair.target):
                for name in semantics.tables_with_semantics():
                    check_tree(
                        semantics.graph,
                        semantics.schema.table(name),
                        semantics.tree(name),
                    )


class TestViews:
    def test_views_cover_all_tables(self, semantics):
        assert len(semantics.views()) == 3

    def test_view_head_matches_columns(self, semantics):
        view = semantics.view("writes")
        assert [v.name for v in view.head] == ["pname", "bid"]

    def test_view_body_is_key_merged(self, semantics):
        view = semantics.view("writes")
        assert {str(a) for a in view.body} == {
            "O:Person(pname)",
            "O:Book(bid)",
            "O:writes(pname, bid)",
        }

    def test_views_cached(self, semantics):
        assert semantics.view("person") is semantics.view("person")

    def test_unknown_view_rejected(self, semantics):
        with pytest.raises(SemanticsError):
            semantics.view("ghost")


class TestColumnLookups:
    def test_column_class(self, semantics):
        assert semantics.column_class(Column("writes", "bid")) == "Book"
        assert semantics.column_class(Column("person", "pname")) == "Person"

    def test_column_attribute(self, semantics):
        assert semantics.column_attribute(Column("writes", "bid")) == "bid"

    def test_marked_nodes(self, semantics):
        marked = semantics.marked_nodes(
            [Column("person", "pname"), Column("bookstore", "sid")]
        )
        assert marked == {"Person", "Bookstore"}

    def test_preselected_trees(self, semantics):
        pairs = semantics.preselected_trees(
            [Column("writes", "pname"), Column("writes", "bid")]
        )
        assert [name for name, _ in pairs] == ["writes"]

    def test_preselected_cm_edges_include_inverses(self, semantics):
        edges = semantics.preselected_cm_edges([Column("writes", "pname")])
        labels = {e.label for e in edges}
        assert "writes" in labels
        assert "writes⁻" in labels

    def test_missing_tree_raises(self, semantics):
        with pytest.raises(SemanticsError):
            semantics.tree("ghost")

    def test_describe(self, semantics):
        assert "writes" in semantics.describe()


def _prefixed_index(semantics):
    """The predicate index keyed by ``CM_PREFIX + name``: the reference
    that ``tables_mentioning``'s bare-keyed index must answer exactly
    like."""
    index = {}
    for name in semantics.tables_with_semantics():
        tree = semantics.tree(name)
        names = {node.cm_node for node in tree.nodes()}
        names.update(
            edge.cm_edge.base_name
            for edge in tree.edges
            if not edge.cm_edge.is_isa
        )
        names.update(attribute for _, attribute in tree.columns.values())
        for bare in names:
            index.setdefault(CM_PREFIX + bare, []).append(name)
    return {key: tuple(tables) for key, tables in index.items()}


class TestTablesMentioning:
    def test_bare_keyed_index_answers_like_the_prefixed_one(self):
        checked = 0
        for pair in load_all_datasets():
            for semantics in (pair.source, pair.target):
                reference = _prefixed_index(semantics)
                model = semantics.model
                bare = set(model.class_names()) | set(model.relationships)
                bare.add(ISA_LABEL)
                for cls in model.classes.values():
                    bare.update(cls.attributes)
                predicates = {CM_PREFIX + name for name in bare}
                predicates.update(bare)
                predicates.update(semantics.schema.table_names())
                predicates.update(
                    atom.predicate
                    for view in semantics.views()
                    for atom in view.body
                )
                predicates.update(("", CM_PREFIX, CM_PREFIX + CM_PREFIX))
                for predicate in sorted(predicates):
                    assert semantics.tables_mentioning(
                        predicate
                    ) == reference.get(predicate, ()), predicate
                    checked += 1
        assert checked > 1000
