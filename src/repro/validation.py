"""Pre-flight validation of discovery inputs with structured diagnostics.

Every check a :class:`~repro.discovery.mapper.SemanticMapper` run would
otherwise fail on deep inside Steiner search or LAV rewriting is made
explicit here, *before* execution: correspondences must reference
existing columns, s-trees must be subgraphs of their CM graph with
correctly owned attributes, and RICs must name real tables and columns.
Problems come back as :class:`Diagnostic` records inside a
:class:`ValidationReport` instead of a stack trace, so the three callers
— :class:`SemanticMapper.__init__`, the evaluation harness, and the
``python -m repro validate`` subcommand — can render, count, or raise on
them uniformly.

Severities
----------
``error``
    The input cannot run: discovery would raise.
``warning``
    The input runs, but is probably not what the caller meant (e.g. an
    empty correspondence set, which makes ``discover()`` raise
    :class:`~repro.exceptions.DiscoveryError` by design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.correspondences import CorrespondenceSet
from repro.exceptions import ConceptualModelError, SchemaError, ValidationError
from repro.relational.schema import RelationalSchema
from repro.semantics.lav import SchemaSemantics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.discovery.batch import Scenario

#: Diagnostic severities, mild to fatal.
WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding.

    ``code`` is a stable dotted identifier (``"correspondence.source-column"``,
    ``"stree.edge"``, ...) meant for programmatic filtering; ``location``
    names the schema/table/scenario the finding is about.
    """

    severity: str
    code: str
    message: str
    location: str = ""

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.severity}: {self.code}{where}: {self.message}"


@dataclass
class ValidationReport:
    """All diagnostics of one validation run, in discovery order."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- assembly -------------------------------------------------------
    def add(
        self, severity: str, code: str, message: str, location: str = ""
    ) -> None:
        self.diagnostics.append(Diagnostic(severity, code, message, location))

    def error(self, code: str, message: str, location: str = "") -> None:
        self.add(ERROR, code, message, location)

    def warning(self, code: str, message: str, location: str = "") -> None:
        self.add(WARNING, code, message, location)

    def extend(self, other: "ValidationReport") -> "ValidationReport":
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- interrogation --------------------------------------------------
    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    @property
    def ok(self) -> bool:
        """True when no *errors* were found (warnings are tolerated)."""
        return not self.errors

    def raise_if_errors(self) -> "ValidationReport":
        """Raise :class:`ValidationError` when any error diagnostic exists."""
        errors = self.errors
        if errors:
            summary = "; ".join(str(d) for d in errors[:3])
            if len(errors) > 3:
                summary += f"; ... ({len(errors) - 3} more)"
            raise ValidationError(
                f"{len(errors)} validation error(s): {summary}",
                diagnostics=self.diagnostics,
            )
        return self

    def render(self) -> str:
        """Human-readable multi-line rendering (empty string when clean)."""
        return "\n".join(str(d) for d in self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)


# ---------------------------------------------------------------------------
# Schema-level checks
# ---------------------------------------------------------------------------
def validate_schema(schema: RelationalSchema) -> ValidationReport:
    """Check that every RIC names real tables/columns with equal arity.

    :class:`RelationalSchema` enforces this on ``add_ric``, but schemas
    are mutable and loaders may assemble them through other paths, so the
    harness re-verifies rather than trusting construction-time checks.
    """
    report = ValidationReport()
    for ric in schema.rics:
        for table_name, cols in (
            (ric.child_table, ric.child_columns),
            (ric.parent_table, ric.parent_columns),
        ):
            if not schema.has_table(table_name):
                report.error(
                    "ric.table",
                    f"RIC {ric} references unknown table {table_name!r}",
                    schema.name,
                )
                continue
            table = schema.table(table_name)
            for col in cols:
                if col not in table.columns:
                    report.error(
                        "ric.column",
                        f"RIC {ric} references unknown column "
                        f"{table_name}.{col}",
                        schema.name,
                    )
        if len(ric.child_columns) != len(ric.parent_columns):
            report.error(
                "ric.arity",
                f"RIC {ric} pairs {len(ric.child_columns)} child columns "
                f"with {len(ric.parent_columns)} parent columns",
                schema.name,
            )
    return report


# ---------------------------------------------------------------------------
# Semantics-level checks
# ---------------------------------------------------------------------------
def validate_semantics(semantics: SchemaSemantics) -> ValidationReport:
    """Check that every s-tree is a subgraph of its CM graph.

    Per table: the mapped columns must exist in the table, every tree
    node must be a class node of the CM graph, every tree edge must be an
    actual CM edge, and every column's attribute must belong to its
    node's class.
    """
    report = ValidationReport().extend(validate_schema(semantics.schema))
    graph = semantics.graph
    for table_name in semantics.tables_with_semantics():
        tree = semantics.tree(table_name)
        location = f"{semantics.schema.name}.{table_name}"
        try:
            table = semantics.schema.table(table_name)
        except SchemaError:
            report.error(
                "stree.table",
                f"s-tree recorded for unknown table {table_name!r}",
                location,
            )
            continue
        unknown = sorted(set(tree.columns) - set(table.columns))
        if unknown:
            report.error(
                "stree.columns",
                f"s-tree maps columns missing from the table: {unknown}",
                location,
            )
        for node in tree.nodes():
            if not graph.is_class_node(node.cm_node):
                report.error(
                    "stree.node",
                    f"tree node {node} is not a class node of the CM graph",
                    location,
                )
        for edge in tree.edges:
            try:
                graph.edge(
                    edge.parent.cm_node, edge.cm_edge.label, edge.child.cm_node
                )
            except ConceptualModelError as exc:
                report.error(
                    "stree.edge",
                    f"tree edge {edge} is not a CM graph edge: {exc}",
                    location,
                )
        for column, (node, attribute) in sorted(tree.columns.items()):
            if not semantics.model.has_class(node.cm_node):
                continue  # already reported as stree.node
            owner = semantics.model.cm_class(node.cm_node)
            if attribute not in owner.attributes:
                report.error(
                    "stree.attribute",
                    f"column {column!r} maps to {node}.{attribute}, but "
                    f"class {node.cm_node!r} has no attribute "
                    f"{attribute!r}",
                    location,
                )
    return report


# ---------------------------------------------------------------------------
# Correspondence-level checks
# ---------------------------------------------------------------------------
def validate_correspondences(
    correspondences: CorrespondenceSet,
    source: SchemaSemantics,
    target: SchemaSemantics,
) -> ValidationReport:
    """Check that every correspondence can be lifted through the semantics.

    Each side's column must exist in its schema, the owning table must
    have recorded semantics, and the column must be mapped to an
    attribute node of the table's s-tree (otherwise lifting raises deep
    inside :meth:`CorrespondenceSet.lift`).
    """
    report = ValidationReport()
    if len(correspondences) == 0:
        report.warning(
            "correspondence.empty",
            "no correspondences: discover() has nothing to interpret",
        )
    for correspondence in correspondences:
        for side, column, semantics in (
            ("source", correspondence.source, source),
            ("target", correspondence.target, target),
        ):
            location = f"{correspondence}"
            if not semantics.schema.has_column(column):
                report.error(
                    f"correspondence.{side}-column",
                    f"{side} column {column} not in schema "
                    f"{semantics.schema.name!r}",
                    location,
                )
                continue
            if not semantics.has_tree(column.table):
                report.error(
                    f"correspondence.{side}-semantics",
                    f"table {column.table!r} has no recorded semantics, "
                    f"so {column} cannot be lifted",
                    location,
                )
                continue
            if column.name not in semantics.tree(column.table).columns:
                report.error(
                    f"correspondence.{side}-unmapped",
                    f"column {column} is not mapped to any attribute node "
                    f"of its s-tree",
                    location,
                )
    return report


# ---------------------------------------------------------------------------
# Whole-input checks
# ---------------------------------------------------------------------------
def validate_pair(
    source: SchemaSemantics,
    target: SchemaSemantics,
    correspondences: CorrespondenceSet,
) -> ValidationReport:
    """Validate a full discovery input: both semantics + correspondences."""
    report = ValidationReport()
    report.extend(validate_semantics(source))
    report.extend(validate_semantics(target))
    report.extend(validate_correspondences(correspondences, source, target))
    return report


def validate_scenario(scenario: "Scenario") -> ValidationReport:
    """Validate one batch :class:`Scenario`, tagging its id as location."""
    report = validate_pair(
        scenario.source, scenario.target, scenario.correspondences
    )
    tagged = ValidationReport()
    for diagnostic in report:
        location = (
            f"{scenario.scenario_id}: {diagnostic.location}"
            if diagnostic.location
            else scenario.scenario_id
        )
        tagged.add(
            diagnostic.severity, diagnostic.code, diagnostic.message, location
        )
    return tagged
