"""Structured diagnostics, and the pre-flight check of correspondences.

Discovery inputs are checked where they are built: a
:class:`~repro.semantics.lav.SchemaSemantics` with a malformed s-tree,
or a :class:`~repro.relational.schema.RelationalSchema` with a RIC
naming unknown columns, cannot be constructed. What no constructor sees
is whether a correspondence set fits the semantics it is paired with;
:func:`validate_correspondences` checks that *before* execution, so a
dangling correspondence does not fail deep inside discovery. Problems
come back as :class:`Diagnostic` records inside a
:class:`ValidationReport` instead of a stack trace; ingestion reports
its findings as the same records.

Severities
----------
``info``
    Advisory (an ingestion pattern, such as a likely edge table).
``warning``
    The input runs, but is probably not what the caller meant (e.g. an
    empty correspondence set, which makes ``discover()`` raise
    :class:`~repro.exceptions.DiscoveryError` by design).
``error``
    The input cannot run: discovery would raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.correspondences import CorrespondenceSet
    from repro.discovery.batch import Scenario
    from repro.semantics.lav import SchemaSemantics

#: Diagnostic severities, mild to fatal.
INFO = "info"
WARNING = "warning"
ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding.

    ``code`` is a stable dotted identifier (``"correspondence.source-column"``,
    ``"pattern.edge-table"``, ...) meant for programmatic filtering;
    ``location`` names the schema/table/column/scenario the finding is
    about.
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
            raise ValidationError(
                f"{len(errors)} validation error(s): {self.error_summary()}",
                diagnostics=self.diagnostics,
            )
        return self

    def error_summary(self) -> str:
        """The first three errors on one line, then how many more."""
        errors = self.errors
        summary = "; ".join(str(d) for d in errors[:3])
        if len(errors) > 3:
            summary += f"; ... ({len(errors) - 3} more)"
        return summary

    def render(self) -> str:
        """Human-readable multi-line rendering (empty string when clean)."""
        return "\n".join(str(d) for d in self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)


# ---------------------------------------------------------------------------
# Correspondence-level checks
# ---------------------------------------------------------------------------
def validate_correspondences(
    correspondences: "CorrespondenceSet",
    source: "SchemaSemantics",
    target: "SchemaSemantics",
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


def validate_scenario(scenario: "Scenario") -> ValidationReport:
    """Validate one batch :class:`Scenario`, tagging its id as location."""
    report = validate_correspondences(
        scenario.correspondences, scenario.source, scenario.target
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
