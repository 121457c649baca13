"""Semantics recovery glue for introspected schemas.

Bridges :mod:`repro.ingest.introspect` to
:func:`repro.semantics.recover.recover_semantics`: run the heuristic
recoverer over a live-introspected schema against the shared CM, then
fold everything it could not interpret — skipped tables, unmapped
columns — into a :class:`repro.validation.ValidationReport`. The
recovered semantics need no structural re-check: building a
:class:`~repro.semantics.lav.SchemaSemantics` enforces the s-tree
contract. Tables without semantics are reported, never silently
dropped; whether they are fatal is the caller's policy (``strict``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cm.model import ConceptualModel
from repro.exceptions import IngestError
from repro.semantics.lav import SchemaSemantics
from repro.semantics.recover import RecoveryReport, recover_semantics
from repro.semantics.stree import SemanticTree
from repro.validation import ERROR, WARNING, ValidationReport

from repro.ingest.introspect import IntrospectionResult


@dataclass
class RecoveredSide:
    """One side of a scenario: introspected schema + recovered s-trees."""

    introspection: IntrospectionResult
    recovery: RecoveryReport
    validation: ValidationReport

    @property
    def semantics(self) -> SchemaSemantics:
        return self.recovery.semantics

    @property
    def ok(self) -> bool:
        """True when recovery left no errors (warnings tolerated)."""
        return self.validation.ok

    def describe(self) -> str:
        """Human-readable report: coverage, then every diagnostic."""
        schema = self.recovery.semantics.schema
        covered = len(self.recovery.semantics.tables_with_semantics())
        lines = [
            f"schema {schema.name}: {covered}/{len(schema)} tables "
            f"recovered ({self.recovery.coverage():.0%} coverage)"
        ]
        for diagnostic in self.introspection.diagnostics:
            lines.append(f"  {diagnostic}")
        rendered = self.validation.render()
        if rendered:
            lines.extend(f"  {line}" for line in rendered.splitlines())
        return "\n".join(lines)


def recover_introspected(
    introspection: IntrospectionResult,
    model: ConceptualModel,
    strict: bool = False,
    reuse: Mapping[str, SemanticTree] | None = None,
) -> RecoveredSide:
    """Recover s-trees for an introspected schema against ``model``.

    Every table the recoverer skips becomes an ``ingest.recover.
    table-skipped`` diagnostic and every column it could not map an
    ``ingest.recover.column-unmapped`` one — warnings by default, errors
    under ``strict`` (where any uninterpreted table also raises
    :class:`IngestError`). ``reuse`` offers unchanged tables' previous
    s-trees (incremental re-ingestion) — adopted verbatim when they
    still fit the schema and the model.
    """
    schema = introspection.schema
    recovery = recover_semantics(schema, model, reuse)
    report = ValidationReport()
    # Error-severity introspection findings (empty database, unusable
    # identifiers, ...) must reach the discovery gate; informational
    # findings stay on ``introspection.diagnostics`` only.
    for diagnostic in introspection.errors:
        report.add(
            diagnostic.severity,
            diagnostic.code,
            diagnostic.message,
            diagnostic.location or schema.name,
        )
    severity = ERROR if strict else WARNING
    for skipped in recovery.skipped_tables:
        table_name = skipped.split(":", 1)[0]
        report.add(
            severity,
            "ingest.recover.table-skipped",
            f"no semantics recovered ({skipped.split(':', 1)[-1].strip()}); "
            f"the table cannot participate in discovery",
            f"{schema.name}.{table_name}",
        )
    for qualified in recovery.unmapped_columns:
        report.add(
            severity,
            "ingest.recover.column-unmapped",
            "column not mapped to any CM attribute; correspondences "
            "touching it cannot be lifted",
            f"{schema.name}.{qualified}",
        )
    side = RecoveredSide(introspection, recovery, report)
    if strict and not report.ok:
        raise IngestError(
            f"semantics recovery for schema {schema.name!r} left "
            f"{len(report.errors)} error(s): {report.error_summary()}"
        )
    return side
