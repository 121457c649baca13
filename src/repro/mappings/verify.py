"""Verifying mappings against concrete instances (mapping debugging).

The paper's workflow ends with candidates "presented to the user for
further examination and debugging". This module provides the data-level
half of that: given a tgd and a pair of instances, report exactly which
source answers the target fails to justify — the witnesses a user would
inspect to accept or reject a candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mappings.tgd import SourceToTargetTGD
from repro.queries.datalog import evaluate_query
from repro.relational.instance import Instance


@dataclass(frozen=True)
class Violation:
    """One source answer with no matching target answer."""

    tgd_name: str
    exported: tuple

    def __str__(self) -> str:
        return f"{self.tgd_name}: no target tuple justifies {self.exported!r}"


def tgd_violations(
    tgd: SourceToTargetTGD,
    source_instance: Instance,
    target_instance: Instance,
    limit: int = 100,
) -> list[Violation]:
    """Source answers of ``tgd`` absent from the target's answers.

    Empty list ⇔ the instance pair satisfies the tgd. ``limit`` caps the
    number of reported witnesses.
    """
    source_answers = evaluate_query(tgd.source, source_instance)
    target_answers = evaluate_query(tgd.target, target_instance)
    violations = []
    for answer in sorted(source_answers - target_answers, key=repr):
        violations.append(Violation(tgd.name, answer))
        if len(violations) >= limit:
            break
    return violations


@dataclass(frozen=True)
class VerificationReport:
    """Satisfaction summary for a set of tgds over one instance pair."""

    satisfied: tuple[str, ...]
    violated: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violated

    def __str__(self) -> str:
        lines = [
            f"{len(self.satisfied)} tgd(s) satisfied, "
            f"{len(self.violated)} violation(s)"
        ]
        lines.extend(f"  {violation}" for violation in self.violated[:10])
        return "\n".join(lines)


def verify_mappings(
    tgds,
    source_instance: Instance,
    target_instance: Instance,
    per_tgd_limit: int = 10,
) -> VerificationReport:
    """Check every tgd, collecting violations across the set."""
    satisfied: list[str] = []
    violated: list[Violation] = []
    for tgd in tgds:
        found = tgd_violations(
            tgd, source_instance, target_instance, per_tgd_limit
        )
        if found:
            violated.extend(found)
        else:
            satisfied.append(tgd.name)
    return VerificationReport(tuple(satisfied), tuple(violated))
