"""Precision and recall of mapping discovery (Section 4, "Measures").

For a mapping case with generated set ``P`` and manually-created
benchmark set ``R``::

    precision = |P ∩ R| / |P|        recall = |P ∩ R| / |R|

Membership in ``P ∩ R`` uses the paper's criterion — the *same pair of
connections* covering the same correspondences — implemented as
:meth:`MappingCandidate.same_mapping_as` (boolean-equivalent source
bodies, boolean-equivalent target bodies, equal covered sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.mappings.expression import MappingCandidate
from repro.queries.chase import ChaseEngine, InclusionDependency
from repro.queries.conjunctive import (
    DB_PREFIX,
    ConjunctiveQuery,
    VariableFactory,
)
from repro.queries.homomorphism import are_equivalent
from repro.queries.normalize import KeyPositions, chase_with_keys
from repro.relational.schema import RelationalSchema


def constraint_closure(
    query: ConjunctiveQuery,
    schema: RelationalSchema | None,
    max_depth: int = 4,
) -> ConjunctiveQuery:
    """The boolean body of ``query`` chased with the schema's constraints.

    Chasing with the RICs (inclusion dependencies) and primary keys makes
    equivalence checks constraint-aware: ``person ⋈ writes`` and
    ``person ⋈ writes ⋈ book`` denote the same connection when
    ``writes.bid ⊆ book.bid`` holds, and the chase makes that literal.
    """
    boolean = ConjunctiveQuery([], query.body, query.name)
    if schema is None:
        return boolean
    dependencies = [
        InclusionDependency.from_ric(ric, schema, DB_PREFIX)
        for ric in schema.rics
    ]
    atoms = ChaseEngine(dependencies, max_depth=max_depth).chase(
        boolean.body, VariableFactory("_cc")
    )
    chased = ConjunctiveQuery([], atoms, query.name)
    keyed = chase_with_keys(chased, KeyPositions(schema))
    return keyed if keyed is not None else chased


class _ClosedCandidate:
    """A candidate with constraint-chased bodies, cached for comparison."""

    def __init__(
        self,
        candidate: MappingCandidate,
        source_schema: RelationalSchema | None,
        target_schema: RelationalSchema | None,
    ) -> None:
        self.candidate = candidate
        self.source_closure = constraint_closure(
            candidate.source_query, source_schema
        )
        self.target_closure = constraint_closure(
            candidate.target_query, target_schema
        )

    def matches(self, other: "_ClosedCandidate") -> bool:
        if set(self.candidate.covered) != set(other.candidate.covered):
            return False
        return are_equivalent(
            self.source_closure, other.source_closure
        ) and are_equivalent(self.target_closure, other.target_closure)


def intersection_size(
    generated: Sequence[MappingCandidate],
    gold: Sequence[MappingCandidate],
    source_schema: RelationalSchema | None = None,
    target_schema: RelationalSchema | None = None,
) -> int:
    """``|P ∩ R|`` — each gold mapping matches at most one generated one.

    With schemas supplied, equality is judged up to the schemas' RICs and
    keys (the chase-closure of the bodies); otherwise it is the plain
    :meth:`MappingCandidate.same_mapping_as` criterion.
    """
    closed_generated = [
        _ClosedCandidate(c, source_schema, target_schema) for c in generated
    ]
    closed_gold = [
        _ClosedCandidate(c, source_schema, target_schema) for c in gold
    ]
    matched = 0
    used: set[int] = set()
    for gold_mapping in closed_gold:
        for index, candidate in enumerate(closed_generated):
            if index in used:
                continue
            if candidate.matches(gold_mapping):
                matched += 1
                used.add(index)
                break
    return matched


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision/recall for one case (or micro-averaged over cases)."""

    precision: float
    recall: float
    generated: int
    gold: int
    matched: int

    def __str__(self) -> str:
        return (
            f"P={self.precision:.2f} R={self.recall:.2f} "
            f"(matched {self.matched}/{self.gold}, generated {self.generated})"
        )


def precision_recall(
    generated: Sequence[MappingCandidate],
    gold: Sequence[MappingCandidate],
    source_schema: RelationalSchema | None = None,
    target_schema: RelationalSchema | None = None,
) -> PrecisionRecall:
    """Compute the paper's two measures for one mapping case.

    An empty ``P`` scores precision 0 (nothing correct was produced),
    matching the paper's treatment of cases where the sought non-trivial
    mapping was missed entirely.
    """
    matched = intersection_size(generated, gold, source_schema, target_schema)
    precision = matched / len(generated) if generated else 0.0
    recall = matched / len(gold) if gold else 0.0
    return PrecisionRecall(
        precision=precision,
        recall=recall,
        generated=len(generated),
        gold=len(gold),
        matched=matched,
    )


def average(values: Sequence[float]) -> float:
    """Plain average, 0.0 for an empty sequence."""
    return sum(values) / len(values) if values else 0.0
