"""er2rel: forward-engineering a relational schema from a conceptual model.

Implements the standard EER→relational design methodology the paper calls
*er2rel* (Markowitz–Shoshani style, Section 2):

* each class with an (effective) key becomes an *entity table*: key
  columns first, then local non-key attributes;
* each functional binary relationship is *merged* into its domain's
  entity table as foreign-key columns (reducing joins, possibly
  introducing nulls) — or kept as its own table when merging is disabled;
* each many-to-many relationship becomes a *relationship table* keyed by
  both participants' keys;
* each reified relationship class becomes a table keyed by the union of
  its roles' keys, carrying its descriptive attributes;
* each ISA link yields a subclass table keyed by the inherited key, with
  a RIC to the superclass table.

Crucially, the designer emits the **semantics** of every table it creates
— the s-tree and column associations of Section 2 — so downstream mapping
discovery has ground-truth table semantics "for free", exactly as the
paper assumes for schemas developed from a conceptual model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import SemanticsError
from repro.cm.graph import CMGraph
from repro.cm.model import ConceptualModel, Relationship
from repro.relational.constraints import ReferentialConstraint
from repro.relational.schema import RelationalSchema, Table
from repro.semantics.encoder import effective_key
from repro.semantics.lav import SchemaSemantics
from repro.semantics.stree import STreeEdge, STreeNode, SemanticTree


@dataclass
class Er2RelResult:
    """The output of a design run."""

    schema: RelationalSchema
    semantics: SchemaSemantics
    skipped: tuple[str, ...] = ()


class _TreeBuilder:
    """Accumulates s-tree edges/columns with automatic node copies."""

    def __init__(self, graph: CMGraph, root_class: str) -> None:
        self.graph = graph
        self.root = STreeNode(root_class)
        self.edges: list[STreeEdge] = []
        self.columns: dict[str, tuple[STreeNode, str]] = {}
        self._copies: dict[str, int] = {root_class: 0}

    def fresh_node(self, class_name: str) -> STreeNode:
        """A node for ``class_name``, copied if the class already appears."""
        if class_name not in self._copies:
            self._copies[class_name] = 0
            return STreeNode(class_name)
        self._copies[class_name] += 1
        return STreeNode(class_name, self._copies[class_name])

    def add_edge(
        self, parent: STreeNode, label: str, target: str | None = None
    ) -> STreeNode:
        cm_edge = self.graph.edge(parent.cm_node, label, target)
        child = self.fresh_node(cm_edge.target)
        self.edges.append(STreeEdge(parent, child, cm_edge))
        return child

    def map_column(self, column: str, node: STreeNode, attribute: str) -> None:
        self.columns[column] = (node, attribute)

    def build(self) -> SemanticTree:
        return SemanticTree(self.root, self.edges, self.columns)


class Er2RelDesigner:
    """Forward-engineers a :class:`ConceptualModel` into tables + semantics.

    Parameters
    ----------
    model:
        The conceptual model to design from.
    merge_functional:
        When true (the default, and the paper's er2rel), functional
        relationships fold into their domain's entity table as foreign-key
        columns; when false every relationship gets its own table.

    >>> cm = ConceptualModel("m")
    >>> _ = cm.add_class("Dept", attributes=["dno", "dname"], key=["dno"])
    >>> _ = cm.add_class("Emp", attributes=["eno"], key=["eno"])
    >>> _ = cm.add_relationship("worksIn", "Emp", "Dept", "1..1", "0..*")
    >>> result = Er2RelDesigner(cm).design("hr")
    >>> str(result.schema.table("emp"))
    'emp(_eno_, dno)'
    """

    def __init__(
        self,
        model: ConceptualModel,
        merge_functional: bool = True,
        inherit_attributes: bool = False,
    ) -> None:
        self.model = model
        self.graph = CMGraph(model)
        self.merge_functional = merge_functional
        self.inherit_attributes = inherit_attributes

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def design(self, schema_name: str) -> Er2RelResult:
        schema = RelationalSchema(schema_name)
        trees: dict[str, SemanticTree] = {}
        skipped: list[str] = []
        pending_rics: list[ReferentialConstraint] = []
        merged = self._merged_relationships()

        for class_name in self.model.class_names():
            cm_class = self.model.cm_class(class_name)
            if cm_class.reified:
                continue  # handled with relationships below
            key = effective_key(self.model, class_name)
            if not key:
                skipped.append(f"class {class_name}: no (inherited) key")
                continue
            table, tree, rics = self._entity_table(
                class_name, key, merged.get(class_name, ())
            )
            schema.add_table(table)
            trees[table.name] = tree
            pending_rics.extend(rics)

        for rel_name in sorted(self.model.relationships):
            relationship = self.model.relationship(rel_name)
            if relationship.is_role:
                continue
            if self.merge_functional and relationship.is_functional:
                continue  # already merged into the domain entity table
            outcome = self._relationship_table(relationship)
            if outcome is None:
                skipped.append(f"relationship {rel_name}: keyless participant")
                continue
            table, tree, rics = outcome
            schema.add_table(table)
            trees[table.name] = tree
            pending_rics.extend(rics)

        for class_name in self.model.class_names():
            if not self.model.is_reified(class_name):
                continue
            outcome = self._reified_table(class_name)
            if outcome is None:
                skipped.append(f"reified {class_name}: keyless participant")
                continue
            table, tree, rics = outcome
            schema.add_table(table)
            trees[table.name] = tree
            pending_rics.extend(rics)

        for ric in pending_rics:
            if schema.has_table(ric.child_table) and schema.has_table(
                ric.parent_table
            ):
                schema.add_ric(ric)
        return Er2RelResult(
            schema,
            SchemaSemantics(schema, self.graph, trees),
            tuple(skipped),
        )

    # ------------------------------------------------------------------
    # Entity tables
    # ------------------------------------------------------------------
    def _entity_table(
        self,
        class_name: str,
        key: tuple[str, ...],
        merged: Sequence[Relationship],
    ) -> tuple[Table, SemanticTree, list[ReferentialConstraint]]:
        cm_class = self.model.cm_class(class_name)
        builder = _TreeBuilder(self.graph, class_name)
        columns: list[str] = []
        rics: list[ReferentialConstraint] = []

        key_owner = self._key_owner_node(builder, class_name, key)
        for attribute in key:
            columns.append(attribute)
            builder.map_column(attribute, key_owner, attribute)
        if self.inherit_attributes:
            # Denormalized subclass tables (Example 1.2's programmer(ssn,
            # name, acnt)): carry non-key attributes of every ancestor on
            # the already-built ISA chain to the key owner.
            chain_nodes = {builder.root.cm_node: builder.root}
            for edge in builder.edges:
                if edge.cm_edge.is_isa:
                    chain_nodes[edge.child.cm_node] = edge.child
            for ancestor, node in chain_nodes.items():
                if ancestor == class_name:
                    continue
                for attribute in self.model.cm_class(ancestor).attributes:
                    if attribute in key or attribute in columns:
                        continue
                    columns.append(attribute)
                    builder.map_column(attribute, node, attribute)
        for attribute in cm_class.attributes:
            if attribute in key:
                continue
            columns.append(attribute)
            builder.map_column(attribute, builder.root, attribute)

        if self.merge_functional:
            for relationship in merged:
                target_key = effective_key(self.model, relationship.range)
                if not target_key:
                    continue
                child = builder.add_edge(builder.root, relationship.name)
                target_owner = self._key_owner_node(
                    builder, relationship.range, target_key, start=child
                )
                fk_columns = []
                for attribute in target_key:
                    column = self._allocate_column(
                        columns, attribute, relationship.name
                    )
                    columns.append(column)
                    fk_columns.append(column)
                    builder.map_column(column, target_owner, attribute)
                parent_table = table_name_for(relationship.range)
                rics.append(
                    ReferentialConstraint(
                        table_name_for(class_name),
                        fk_columns,
                        parent_table,
                        list(target_key),
                    )
                )

        if key_owner != builder.root:
            # Subclass table: key references the superclass table.
            super_name = self._keyed_ancestor(class_name)
            if super_name is not None:
                rics.append(
                    ReferentialConstraint(
                        table_name_for(class_name),
                        list(key),
                        table_name_for(super_name),
                        list(key),
                    )
                )
        table = Table(table_name_for(class_name), columns, list(key))
        return table, builder.build(), rics

    def _merged_relationships(self) -> dict[str, list[Relationship]]:
        """Functional, non-role relationships by domain, each by name."""
        merged: dict[str, list[Relationship]] = {}
        for relationship in sorted(
            self.model.relationships.values(), key=lambda r: r.name
        ):
            if relationship.is_functional and not relationship.is_role:
                merged.setdefault(relationship.domain, []).append(relationship)
        return merged

    def _keyed_ancestor(self, class_name: str) -> str | None:
        """Closest ancestor declaring its own key, or ``None``."""
        if self.model.cm_class(class_name).key:
            return None
        current_level = list(self.model.direct_superclasses(class_name))
        while current_level:
            for candidate in current_level:
                if self.model.cm_class(candidate).key:
                    return candidate
            next_level = []
            for candidate in current_level:
                next_level.extend(self.model.direct_superclasses(candidate))
            current_level = next_level
        return None

    def _key_owner_node(
        self,
        builder: _TreeBuilder,
        class_name: str,
        key: tuple[str, ...],
        start: STreeNode | None = None,
    ) -> STreeNode:
        """The tree node owning the key attributes of ``class_name``.

        When the key is inherited, ISA edges are added from ``start`` up
        to the ancestor that declares it.
        """
        node = start if start is not None else builder.root
        current_class = class_name
        while key[0] not in self.model.cm_class(current_class).attributes:
            ancestors = self.model.direct_superclasses(current_class)
            next_class = None
            for ancestor in ancestors:
                ancestor_key = effective_key(self.model, ancestor)
                if ancestor_key == key:
                    next_class = ancestor
                    break
            if next_class is None:
                raise SemanticsError(
                    f"cannot locate owner of key {key} for {class_name!r}"
                )
            node = builder.add_edge(node, "isa", next_class)
            current_class = next_class
        return node

    # ------------------------------------------------------------------
    # Relationship tables
    # ------------------------------------------------------------------
    def _relationship_table(
        self, relationship: Relationship
    ) -> tuple[Table, SemanticTree, list[ReferentialConstraint]] | None:
        domain_key = effective_key(self.model, relationship.domain)
        range_key = effective_key(self.model, relationship.range)
        if not domain_key or not range_key:
            return None
        builder = _TreeBuilder(self.graph, relationship.domain)
        child = builder.add_edge(builder.root, relationship.name)
        domain_owner = self._key_owner_node(
            builder, relationship.domain, domain_key
        )
        range_owner = self._key_owner_node(
            builder, relationship.range, range_key, start=child
        )
        columns: list[str] = []
        domain_columns = []
        for attribute in domain_key:
            column = self._allocate_column(columns, attribute, "from")
            columns.append(column)
            domain_columns.append(column)
            builder.map_column(column, domain_owner, attribute)
        range_columns = []
        for attribute in range_key:
            column = self._allocate_column(columns, attribute, "to")
            columns.append(column)
            range_columns.append(column)
            builder.map_column(column, range_owner, attribute)
        if relationship.is_functional:
            primary_key = domain_columns
        else:
            primary_key = domain_columns + range_columns
        name = table_name_for(relationship.name)
        table = Table(name, columns, primary_key)
        rics = [
            ReferentialConstraint(
                name,
                domain_columns,
                table_name_for(relationship.domain),
                list(domain_key),
            ),
            ReferentialConstraint(
                name,
                range_columns,
                table_name_for(relationship.range),
                list(range_key),
            ),
        ]
        return table, builder.build(), rics

    # ------------------------------------------------------------------
    # Reified-relationship tables
    # ------------------------------------------------------------------
    def _reified_table(
        self, class_name: str
    ) -> tuple[Table, SemanticTree, list[ReferentialConstraint]] | None:
        cm_class = self.model.cm_class(class_name)
        roles = self.model.roles_of(class_name)
        role_keys = {}
        for role in roles:
            participant_key = effective_key(self.model, role.range)
            if not participant_key:
                return None
            role_keys[role.name] = participant_key
        builder = _TreeBuilder(self.graph, class_name)
        columns: list[str] = []
        rics: list[ReferentialConstraint] = []
        name = table_name_for(class_name)
        key_columns: list[str] = []
        for role in roles:
            child = builder.add_edge(builder.root, role.name)
            owner = self._key_owner_node(
                builder, role.range, role_keys[role.name], start=child
            )
            fk_columns = []
            for attribute in role_keys[role.name]:
                column = self._allocate_column(columns, attribute, role.name)
                columns.append(column)
                fk_columns.append(column)
                builder.map_column(column, owner, attribute)
            key_columns.extend(fk_columns)
            rics.append(
                ReferentialConstraint(
                    name,
                    fk_columns,
                    table_name_for(role.range),
                    list(role_keys[role.name]),
                )
            )
        for attribute in cm_class.attributes:
            column = self._allocate_column(columns, attribute, class_name)
            columns.append(column)
            builder.map_column(column, builder.root, attribute)
        table = Table(name, columns, key_columns)
        return table, builder.build(), rics

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _allocate_column(existing: list[str], base: str, prefix: str) -> str:
        """``base`` when free, otherwise ``prefix_base`` (made unique)."""
        if base not in existing:
            return base
        candidate = f"{_sanitize(prefix)}_{base}"
        counter = 2
        unique = candidate
        while unique in existing:
            unique = f"{candidate}{counter}"
            counter += 1
        return unique


def _sanitize(name: str) -> str:
    return "".join(ch for ch in name if ch.isalnum() or ch == "_").lower()


def table_name_for(cm_name: str) -> str:
    """The relational table name for a CM class/relationship name."""
    return _sanitize(cm_name)


def design_schema(
    model: ConceptualModel,
    schema_name: str,
    merge_functional: bool = True,
    inherit_attributes: bool = False,
) -> Er2RelResult:
    """One-shot convenience wrapper around :class:`Er2RelDesigner`."""
    return Er2RelDesigner(model, merge_functional, inherit_attributes).design(
        schema_name
    )
