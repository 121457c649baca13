"""Schema semantics: the table → s-tree association plus LAV views.

A :class:`SchemaSemantics` bundles a relational schema, the CM graph of
its conceptual model, and one :class:`~repro.semantics.stree.SemanticTree`
per table. From these it derives the key-merged LAV views used by the
rewriting step (one table at a time, on first use, so a rewrite touches
only the views whose tables can mention its query's predicates), and
answers the lookups the discovery algorithm needs:
which class node carries a given column, and which s-trees are
*pre-selected* by a set of columns (Section 3.1).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.exceptions import ConceptualModelError, SemanticsError
from repro.cm.graph import CMGraph
from repro.cm.model import ConceptualModel
from repro.queries.conjunctive import CM_PREFIX, Variable
from repro.queries.normalize import KeyPositions
from repro.queries.rewrite import LAVView
from repro.relational.schema import Column, RelationalSchema, Table
from repro.semantics.encoder import encode_and_merge
from repro.semantics.stree import SemanticTree


def check_tree(graph: CMGraph, table: Table, tree: SemanticTree) -> None:
    """Raise :class:`SemanticsError` unless ``tree`` is an s-tree of
    ``table`` in ``graph`` (Section 2).

    The tree may map only columns ``table`` has; every node must be a
    class node of ``graph``; every tree edge must be an edge of
    ``graph`` itself, not one of another graph that happens to share
    its label; and every column's attribute must belong to its node's
    class.
    """
    unknown = set(tree.columns).difference(table.columns)
    if unknown:
        raise SemanticsError(
            f"s-tree of {table.name!r} maps unknown columns {sorted(unknown)}"
        )
    for node in tree.nodes():
        if not graph.is_class_node(node.cm_node):
            raise SemanticsError(
                f"s-tree of {table.name!r} uses unknown class "
                f"{node.cm_node!r}"
            )
    for edge in tree.edges:
        try:
            found = graph.edge(
                edge.parent.cm_node, edge.cm_edge.label, edge.child.cm_node
            )
        except ConceptualModelError:
            found = None
        if found != edge.cm_edge:
            raise SemanticsError(
                f"s-tree of {table.name!r}: {edge} is not an edge of the "
                f"CM graph"
            )
    for column, (node, attribute) in tree.columns.items():
        if attribute not in graph.model.cm_class(node.cm_node).attributes:
            raise SemanticsError(
                f"s-tree of {table.name!r} maps column {column!r} to "
                f"{node}.{attribute}, but class {node.cm_node!r} has no "
                f"attribute {attribute!r}"
            )


class SchemaSemantics:
    """The semantics of a whole relational schema over one CM graph.

    Construction enforces the s-tree contract (:func:`check_tree`) for
    every table, so a built :class:`SchemaSemantics` needs no later
    re-validation.
    """

    def __init__(
        self,
        schema: RelationalSchema,
        graph: CMGraph,
        trees: Mapping[str, SemanticTree],
    ) -> None:
        self.schema = schema
        self.graph = graph
        self._trees: dict[str, SemanticTree] = dict(trees)
        for table_name, tree in self._trees.items():
            if not schema.has_table(table_name):
                raise SemanticsError(
                    f"s-tree recorded for unknown table {table_name!r}"
                )
            check_tree(graph, schema.table(table_name), tree)
        self._views: dict[str, LAVView] = {}
        self._tables_by_predicate: dict[str, tuple[str, ...]] | None = None
        self._key_positions: KeyPositions | None = None

    @property
    def model(self) -> ConceptualModel:
        return self.graph.model

    # ------------------------------------------------------------------
    # Trees
    # ------------------------------------------------------------------
    def tree(self, table_name: str) -> SemanticTree:
        try:
            return self._trees[table_name]
        except KeyError:
            raise SemanticsError(
                f"no semantics recorded for table {table_name!r}"
            ) from None

    def has_tree(self, table_name: str) -> bool:
        return table_name in self._trees

    def tables_with_semantics(self) -> tuple[str, ...]:
        return tuple(
            name for name in self.schema.table_names() if name in self._trees
        )

    # ------------------------------------------------------------------
    # LAV views
    # ------------------------------------------------------------------
    def views(self) -> tuple[LAVView, ...]:
        """Key-merged LAV views for every table with semantics."""
        return tuple(self.view(name) for name in self.tables_with_semantics())

    def view(self, table_name: str) -> LAVView:
        """One table's key-merged LAV view, built on first use."""
        view = self._views.get(table_name)
        if view is None:
            if table_name not in self._trees:
                raise SemanticsError(
                    f"no semantics recorded for table {table_name!r}"
                )
            view = self._build_view(table_name)
            self._views[table_name] = view
        return view

    def tables_mentioning(self, predicate: str) -> tuple[str, ...]:
        """Tables whose view body may hold an atom over ``predicate``.

        Read off the s-trees without encoding them: a class atom per
        node, a relationship atom per non-ISA edge and an attribute atom
        per column. Key-merging only drops atoms, so the result is a
        superset of the tables whose view mentions ``predicate``, in
        :meth:`tables_with_semantics` order. The index is keyed by bare
        CM names; ``predicate`` loses its :data:`CM_PREFIX` on lookup.
        """
        if self._tables_by_predicate is None:
            index: dict[str, list[str]] = {}
            for name in self.tables_with_semantics():
                tree = self._trees[name]
                names = {node.cm_node for node in tree.nodes()}
                names.update(
                    edge.cm_edge.base_name
                    for edge in tree.edges
                    if not edge.cm_edge.is_isa
                )
                names.update(
                    attribute for _, attribute in tree.columns.values()
                )
                for bare in names:
                    index.setdefault(bare, []).append(name)
            # Many predicates share one table set (a class and its
            # attributes, say): store one tuple per distinct set.
            shared: dict[tuple[str, ...], tuple[str, ...]] = {}
            by_predicate: dict[str, tuple[str, ...]] = {}
            for key, tables in index.items():
                found = tuple(tables)
                by_predicate[key] = shared.setdefault(found, found)
            self._tables_by_predicate = by_predicate
        if not predicate.startswith(CM_PREFIX):
            return ()
        return self._tables_by_predicate.get(predicate[len(CM_PREFIX) :], ())

    def key_positions(self) -> Mapping[str, tuple[int, ...]]:
        """``table name → primary-key column positions``, each table's
        computed on first lookup."""
        if self._key_positions is None:
            self._key_positions = KeyPositions(self.schema)
        return self._key_positions

    def _build_view(self, table_name: str) -> LAVView:
        table = self.schema.table(table_name)
        tree = self._trees[table_name]
        encoded = encode_and_merge(tree, self.model)
        head = []
        for column in table.columns:
            if column in encoded.column_variables:
                head.append(encoded.column_variables[column])
            else:
                # Unmapped column: a free head variable with no semantics.
                head.append(Variable(column))
        return LAVView(table_name, head, encoded.atoms)

    # ------------------------------------------------------------------
    # Column → CM lookups (Section 3.1)
    # ------------------------------------------------------------------
    def column_class(self, column: Column) -> str:
        """The CM class node whose attribute realizes ``column``."""
        return self.tree(column.table).column_class(column.name)

    def column_attribute(self, column: Column) -> str:
        return self.tree(column.table).column_attribute(column.name)

    def marked_nodes(self, columns: Iterable[Column]) -> frozenset[str]:
        """The set of marked class nodes induced by a set of columns."""
        return frozenset(self.column_class(column) for column in columns)

    def preselected_trees(
        self, columns: Iterable[Column]
    ) -> tuple[tuple[str, SemanticTree], ...]:
        """(table, s-tree) pairs pre-selected by the given columns."""
        tables: dict[str, None] = {}
        for column in columns:
            tables.setdefault(column.table)
        return tuple((name, self.tree(name)) for name in tables)

    def preselected_cm_edges(self, columns: Iterable[Column]):
        """All CM edges used by the pre-selected s-trees (cost-0 edges)."""
        edges = []
        seen = set()
        for _, tree in self.preselected_trees(columns):
            for cm_edge in tree.cm_edges():
                key = (cm_edge.source, cm_edge.label, cm_edge.target)
                if key not in seen:
                    seen.add(key)
                    edges.append(cm_edge)
                reverse = cm_edge.reversed()
                reverse_key = (reverse.source, reverse.label, reverse.target)
                if reverse_key not in seen:
                    seen.add(reverse_key)
                    edges.append(reverse)
        return tuple(edges)

    def describe(self) -> str:
        lines = [f"semantics of schema {self.schema.name}:"]
        for name in self.tables_with_semantics():
            lines.append(f"  {name}: {self._trees[name]!r}")
        return "\n".join(lines)
