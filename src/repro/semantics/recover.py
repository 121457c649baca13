"""Recovering table semantics from a legacy schema and a CM.

The paper assumes table semantics exist, citing a companion tool
("we have recently developed a tool [1,2,3] to recover the semantics of
a legacy database schema in terms of an existing CM"). This module is a
heuristic reimplementation of that substrate: given a relational schema
(names, keys, RICs) and a conceptual model, it infers an s-tree per
table —

* an **anchor** class, by normalized name match against the table, by
  key-attribute match, or by attribute coverage;
* attribute columns mapped to the anchor's (or its ancestors')
  attributes by normalized name;
* foreign-key columns resolved to relationship edges toward the
  referenced table's anchor (prefix-named columns like ``worksin_dno``
  disambiguate among parallel relationships);
* ISA chains climbed when the key is inherited, and reified-relationship
  tables rebuilt from their role constraints.

The recovery is *heuristic*: tables it cannot interpret are reported,
not guessed. Its fidelity is measured by round-tripping er2rel outputs
(`tests/semantics/test_recover.py`): designing a schema from a CM and
recovering it again must reproduce the designed semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.cm.graph import CMGraph
from repro.cm.model import ConceptualModel
from repro.exceptions import SemanticsError
from repro.relational.schema import RelationalSchema, Table
from repro.semantics.encoder import effective_key
from repro.semantics.er2rel import _TreeBuilder
from repro.semantics.lav import SchemaSemantics, check_tree
from repro.semantics.stree import SemanticTree

_NORM_RE = re.compile(r"[^a-z0-9]+")
_ID_SUFFIX_RE = re.compile(r"(.+?)id$")


def _norm(name: str) -> str:
    return _NORM_RE.sub("", name.lower())


def _singular_norms(normalized: str) -> tuple[str, ...]:
    """Singular candidates for a plural normalized name.

    Real-world tables are often pluralized (``employees``,
    ``categories``, ``addresses``) while CM classes are singular; the
    anchor search tries these reduced forms when the exact form finds
    nothing.
    """
    candidates = []
    if normalized.endswith("ies") and len(normalized) > 3:
        candidates.append(normalized[:-3] + "y")
    if normalized.endswith("es") and len(normalized) > 2:
        candidates.append(normalized[:-2])
    if normalized.endswith("s") and len(normalized) > 1:
        candidates.append(normalized[:-1])
    return tuple(candidates)


@dataclass
class RecoveryReport:
    """What the recoverer produced and what it had to leave out."""

    semantics: SchemaSemantics
    skipped_tables: list[str] = field(default_factory=list)
    unmapped_columns: list[str] = field(default_factory=list)
    #: Tables whose s-tree was adopted from a previous recovery instead
    #: of re-derived (incremental re-ingestion; see
    #: :mod:`repro.ingest.reingest`).
    reused_tables: list[str] = field(default_factory=list)

    def coverage(self) -> float:
        """Fraction of tables that received semantics."""
        total = len(self.semantics.schema)
        if total == 0:
            return 1.0
        return len(self.semantics.tables_with_semantics()) / total


class SemanticsRecoverer:
    """Infers an s-tree per table of ``schema`` against ``model``."""

    def __init__(
        self,
        schema: RelationalSchema,
        model: ConceptualModel,
        reuse: Mapping[str, SemanticTree] | None = None,
    ) -> None:
        self.schema = schema
        self.model = model
        self.graph = CMGraph(model)
        self.reuse = dict(reuse or {})
        self._anchors: dict[str, str] = {}

    def _reusable_tree(self, table: Table) -> SemanticTree | None:
        """The previous s-tree for ``table`` when it still fits.

        The caller (incremental re-ingestion) only offers trees for
        tables whose catalog fingerprint is unchanged, but the model may
        have changed since: a tree that no longer passes
        :func:`~repro.semantics.lav.check_tree` against the current
        table and graph is re-derived instead of adopted.
        """
        tree = self.reuse.get(table.name)
        if tree is None:
            return None
        try:
            check_tree(self.graph, table, tree)
        except SemanticsError:
            return None
        return tree

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        trees: dict[str, SemanticTree] = {}
        skipped: list[str] = []
        unmapped: list[str] = []
        reused: list[str] = []
        # Pass 1: anchor every table we can. Reused trees pin their
        # root class so FK resolution from rebuilt tables still works.
        for table in self.schema:
            reusable = self._reusable_tree(table)
            if reusable is not None:
                self._anchors[table.name] = reusable.root.cm_node
                continue
            anchor = self._find_anchor(table)
            if anchor is not None:
                self._anchors[table.name] = anchor
        # Pass 2: build trees using anchors for FK resolution.
        for table in self.schema:
            reusable = self._reusable_tree(table)
            if reusable is not None:
                trees[table.name] = reusable
                reused.append(table.name)
                unmapped.extend(
                    f"{table.name}.{column}"
                    for column in table.columns
                    if column not in reusable.columns
                )
                continue
            anchor = self._anchors.get(table.name)
            if anchor is None:
                skipped.append(f"{table.name}: no anchor class found")
                continue
            try:
                tree, missing = self._build_tree(table, anchor)
            except SemanticsError as error:
                skipped.append(f"{table.name}: {error}")
                continue
            trees[table.name] = tree
            unmapped.extend(f"{table.name}.{column}" for column in missing)
        return RecoveryReport(
            SchemaSemantics(self.schema, self.graph, trees),
            skipped,
            unmapped,
            reused,
        )

    # ------------------------------------------------------------------
    # Anchors
    # ------------------------------------------------------------------
    def _find_anchor(self, table: Table) -> str | None:
        normalized = _norm(table.name)
        name_forms = (normalized,) + _singular_norms(normalized)
        # (a) class name match — entity and reified tables. Exact form
        # first; singular fallbacks only when nothing matches exactly.
        for form in name_forms:
            for class_name in self.model.class_names():
                if _norm(class_name) == form:
                    return class_name
        # (b) relationship name match — relationship tables anchor at the
        # relationship's domain (the er2rel convention).
        for form in name_forms:
            for rel_name, relationship in self.model.relationships.items():
                if relationship.is_role:
                    continue
                if _norm(rel_name) == form:
                    return relationship.domain
        # (c) key-attribute match.
        pk = {_norm(column) for column in table.primary_key}
        if pk:
            for class_name in self.model.class_names():
                key = effective_key(self.model, class_name)
                if key and {_norm(attribute) for attribute in key} == pk:
                    return class_name
        # (d) best attribute coverage.
        best: tuple[int, str] | None = None
        columns = {_norm(column) for column in table.columns}
        for class_name in self.model.class_names():
            attributes = {
                _norm(a) for a in self.model.cm_class(class_name).attributes
            }
            overlap = len(columns & attributes)
            if overlap and (best is None or overlap > best[0]):
                best = (overlap, class_name)
        return best[1] if best else None

    # ------------------------------------------------------------------
    # Trees
    # ------------------------------------------------------------------
    def _build_tree(
        self, table: Table, anchor: str
    ) -> tuple[SemanticTree, list[str]]:
        normalized_table = _norm(table.name)
        relationship = next(
            (
                rel
                for name, rel in self.model.relationships.items()
                if not rel.is_role and _norm(name) == normalized_table
            ),
            None,
        )
        if self.model.has_class(anchor) and self.model.is_reified(anchor):
            return self._reified_tree(table, anchor)
        if relationship is not None:
            return self._relationship_tree(table, relationship)
        return self._entity_tree(table, anchor)

    def _entity_tree(
        self, table: Table, anchor: str
    ) -> tuple[SemanticTree, list[str]]:
        builder = _TreeBuilder(self.graph, anchor)
        node_of_class = {anchor: builder.root}
        # Climb ISA toward inherited key/attribute owners lazily.
        missing: list[str] = []
        fk_columns = self._foreign_key_targets(table)
        for column in table.columns:
            if column in fk_columns:
                continue
            owner = self._attribute_owner(anchor, column, _norm(table.name))
            if owner is None:
                missing.append(column)
                continue
            owner_class, attribute = owner
            node = self._ensure_isa_node(builder, node_of_class, anchor, owner_class)
            builder.map_column(column, node, attribute)
        for column, parent_table in fk_columns.items():
            placed = self._place_foreign_key(
                builder, table, anchor, column, parent_table
            )
            if not placed:
                missing.append(column)
        return builder.build(), missing

    def _relationship_tree(self, table: Table, relationship):
        builder = _TreeBuilder(self.graph, relationship.domain)
        child = builder.add_edge(
            builder.root, relationship.name, relationship.range
        )
        missing: list[str] = []
        domain_key = effective_key(self.model, relationship.domain)
        range_key = effective_key(self.model, relationship.range)
        remaining = list(table.columns)
        for attribute in domain_key:
            column = self._pop_matching(
                remaining, attribute, relationship.domain
            )
            if column is None:
                missing.append(attribute)
                continue
            node = self._key_node(builder, builder.root, relationship.domain)
            builder.map_column(column, node, attribute)
        for attribute in range_key:
            column = self._pop_matching(
                remaining, attribute, relationship.range
            )
            if column is None:
                missing.append(attribute)
                continue
            node = self._key_node(builder, child, relationship.range)
            builder.map_column(column, node, attribute)
        missing.extend(remaining)
        return builder.build(), missing

    def _reified_tree(self, table: Table, anchor: str):
        builder = _TreeBuilder(self.graph, anchor)
        remaining = list(table.columns)
        missing: list[str] = []
        for role in self.model.roles_of(anchor):
            participant_key = effective_key(self.model, role.range)
            child = builder.add_edge(builder.root, role.name, role.range)
            for attribute in participant_key:
                column = self._pop_matching(remaining, attribute, role.range)
                if column is None:
                    missing.append(attribute)
                    continue
                node = self._key_node(builder, child, role.range)
                builder.map_column(column, node, attribute)
        for attribute in self.model.cm_class(anchor).attributes:
            column = self._pop_matching(remaining, attribute)
            if column is not None:
                builder.map_column(column, builder.root, attribute)
        missing.extend(remaining)
        return builder.build(), missing

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _foreign_key_targets(self, table: Table) -> dict[str, str]:
        """Single-column FK columns → referenced table (non-key FKs)."""
        result: dict[str, str] = {}
        for ric in self.schema.rics_from(table.name):
            if len(ric.child_columns) != 1:
                continue
            (column,) = ric.child_columns
            if (column,) == table.primary_key:
                continue  # inherited key: handled by ISA climbing
            result[column] = ric.parent_table
        return result

    def _attribute_owner(
        self, anchor: str, column: str, table_norm: str = ""
    ) -> tuple[str, str] | None:
        """The class (anchor or ancestor) owning an attribute ≈ ``column``.

        Exact normalized matches win over everything; only when the
        whole ISA chain has no exact match does the search retry with
        entity prefixes stripped, so ``employee_name`` (or camelCase
        ``employeeName``) on an ``Employee``-anchored table still finds
        the ``name`` attribute.
        """
        normalized = _norm(column)
        chain = self._isa_chain(anchor)
        for class_name in chain:
            for attribute in self.model.cm_class(class_name).attributes:
                if _norm(attribute) == normalized:
                    return class_name, attribute
        # Prefix fallback: real-world schemas qualify columns with the
        # entity (class or table) name.
        prefixes = {table_norm, _norm(anchor)} | {
            _norm(class_name) for class_name in chain
        }
        for prefix in sorted(prefixes, key=len, reverse=True):
            if not prefix or not normalized.startswith(prefix):
                continue
            stripped = normalized[len(prefix):]
            if not stripped:
                continue
            for class_name in chain:
                attributes = self.model.cm_class(class_name).attributes
                for attribute in attributes:
                    if _norm(attribute) == stripped:
                        return class_name, attribute
        return None

    def _isa_chain(self, anchor: str) -> list[str]:
        """``anchor`` plus its ancestors, breadth-first, deduplicated."""
        chain: list[str] = []
        frontier = [anchor]
        seen: set[str] = set()
        while frontier:
            class_name = frontier.pop(0)
            if class_name in seen:
                continue
            seen.add(class_name)
            chain.append(class_name)
            frontier.extend(self.model.direct_superclasses(class_name))
        return chain

    def _ensure_isa_node(self, builder, node_of_class, anchor, owner):
        if owner in node_of_class:
            return node_of_class[owner]
        # Climb the ISA chain from the deepest already-present ancestor.
        path = self._isa_path(anchor, owner)
        current_class = anchor
        node = node_of_class[anchor]
        for next_class in path:
            if next_class in node_of_class:
                node = node_of_class[next_class]
            else:
                node = builder.add_edge(node, "isa", next_class)
                node_of_class[next_class] = node
            current_class = next_class
        return node_of_class[owner]

    def _isa_path(self, start: str, goal: str) -> list[str]:
        """Chain of classes from ``start`` (exclusive) up to ``goal``."""
        if start == goal:
            return []
        frontier = [(start, [])]
        seen = set()
        while frontier:
            current, path = frontier.pop(0)
            for parent in self.model.direct_superclasses(current):
                if parent in seen:
                    continue
                seen.add(parent)
                if parent == goal:
                    return path + [parent]
                frontier.append((parent, path + [parent]))
        raise SemanticsError(f"no ISA path from {start!r} to {goal!r}")

    def _key_node(self, builder, node, class_name):
        """The node owning ``class_name``'s key, climbing ISA if needed."""
        key = effective_key(self.model, class_name)
        if not key:
            raise SemanticsError(f"class {class_name!r} has no key")
        if key[0] in self.model.cm_class(class_name).attributes:
            return node
        owner_chain = self._isa_path_to_key_owner(class_name, key)
        current = node
        for parent in owner_chain:
            current = builder.add_edge(current, "isa", parent)
        return current

    def _isa_path_to_key_owner(self, class_name: str, key) -> list[str]:
        path: list[str] = []
        current = class_name
        while key[0] not in self.model.cm_class(current).attributes:
            parents = [
                parent
                for parent in self.model.direct_superclasses(current)
                if effective_key(self.model, parent) == tuple(key)
            ]
            if not parents:
                raise SemanticsError(
                    f"cannot locate key owner for {class_name!r}"
                )
            path.append(parents[0])
            current = parents[0]
        return path

    @staticmethod
    def _pop_matching(
        columns: list[str], attribute: str, class_name: str | None = None
    ) -> str | None:
        normalized = _norm(attribute)
        for column in columns:
            column_norm = _norm(column)
            if column_norm == normalized or column_norm.endswith(normalized):
                columns.remove(column)
                return column
        if class_name is not None:
            # ``employee_id`` names the participant class, not its key
            # attribute — accept when the stem identifies the class.
            class_norm = _norm(class_name)
            for column in columns:
                id_match = _ID_SUFFIX_RE.match(_norm(column))
                if id_match and class_norm.startswith(id_match.group(1)):
                    columns.remove(column)
                    return column
        return None

    def _place_foreign_key(
        self, builder, table: Table, anchor: str, column: str, parent_table: str
    ) -> bool:
        target_class = self._anchors.get(parent_table)
        if target_class is None:
            return False
        candidates = sorted(
            (
                rel
                for rel in self.model.relationships.values()
                if not rel.is_role
                and rel.is_functional
                and rel.range == target_class
                and self._class_or_ancestor(anchor, rel.domain)
            ),
            key=lambda rel: rel.name,
        )
        if not candidates:
            return False
        normalized_column = _norm(column)
        chosen = None
        for rel in candidates:
            if normalized_column.startswith(_norm(rel.name)):
                chosen = rel
                break
        if chosen is None:
            # Unprefixed column: er2rel gives the bare key name to the
            # first relationship in sorted order.
            target_key = effective_key(self.model, target_class)
            if target_key and normalized_column.endswith(_norm(target_key[0])):
                chosen = candidates[0]
        if chosen is None:
            # Real-world ``_id``-suffix style: ``dept_id`` / ``deptId``
            # names the *referenced entity* (often abbreviated), not its
            # key attribute. The RIC already pins the referenced table,
            # so the suffix alone decides when only one relationship
            # leads there; the stem disambiguates parallel ones.
            id_match = _ID_SUFFIX_RE.match(normalized_column)
            if id_match:
                stem = id_match.group(1)
                for rel in candidates:
                    if _norm(rel.name).startswith(stem):
                        chosen = rel
                        break
                if chosen is None and len(candidates) == 1:
                    chosen = candidates[0]
        if chosen is None:
            return False
        child = builder.add_edge(builder.root, chosen.name, chosen.range)
        target_key = effective_key(self.model, target_class)
        if not target_key:
            return False
        node = self._key_node(builder, child, target_class)
        builder.map_column(column, node, target_key[0])
        return True

    def _class_or_ancestor(self, class_name: str, candidate: str) -> bool:
        return candidate == class_name or candidate in self.model.superclasses(
            class_name
        )


def recover_semantics(
    schema: RelationalSchema,
    model: ConceptualModel,
    reuse: Mapping[str, SemanticTree] | None = None,
) -> RecoveryReport:
    """One-shot convenience wrapper around :class:`SemanticsRecoverer`.

    ``reuse`` offers previously recovered s-trees by table name; a table
    whose offered tree still fits the schema adopts it verbatim instead
    of re-deriving (and is listed in ``reused_tables``).
    """
    return SemanticsRecoverer(schema, model, reuse).recover()
