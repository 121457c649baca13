"""Mapping candidates: the objects both discovery methods produce.

A :class:`MappingCandidate` is the triple ⟨E₁, E₂, 𝓛_M⟩ of Section 3.1: a
source expression, a target expression, and the correspondences the pair
covers. Candidates compare by *signature* — the paper's "same pair of
connections" criterion: two candidates are the same mapping when their
source queries join the same tables the same way (equivalent as boolean
queries), likewise their target queries, and they cover the same
correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from repro.correspondences import Correspondence
from repro.exceptions import QueryError
from repro.queries.conjunctive import ConjunctiveQuery, Variable
from repro.queries.homomorphism import are_equivalent
from repro.mappings.tgd import SourceToTargetTGD, align_queries
from repro.relational.algebra import (
    AlgebraExpression,
    BaseRelation,
    NaturalJoin,
    Projection,
    Rename,
)
from repro.relational.schema import RelationalSchema


@dataclass(frozen=True)
class MappingCandidate:
    """⟨source expression, target expression, covered correspondences⟩.

    ``source_optional_tables`` carries the Section 6 outer-join hints:
    source tables realizing CM objects reached over min-cardinality-0
    edges, whose joins a data-exchange engine may want to treat as outer
    joins (see :mod:`repro.mappings.refinement`). The field never
    participates in candidate identity.

    The two heads pair up by position, so they must have the same
    arity; a candidate whose heads differ is refused with
    :class:`~repro.exceptions.QueryError` when it is built.
    """

    source_query: ConjunctiveQuery
    target_query: ConjunctiveQuery
    covered: tuple[Correspondence, ...]
    method: str = "semantic"
    notes: str = ""
    source_optional_tables: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        source_arity = len(self.source_query.head_terms)
        target_arity = len(self.target_query.head_terms)
        if source_arity != target_arity:
            raise QueryError(
                "source and target heads must have the same arity: "
                f"{source_arity} vs {target_arity}"
            )

    def to_tgd(self, name: str = "M") -> SourceToTargetTGD:
        tgd = align_queries(self.source_query, self.target_query)
        return SourceToTargetTGD(tgd.source, tgd.target, name)

    # ------------------------------------------------------------------
    # Identity (the paper's evaluation criterion)
    # ------------------------------------------------------------------
    def boolean_source(self) -> ConjunctiveQuery:
        return _booleanize(self.source_query)

    def boolean_target(self) -> ConjunctiveQuery:
        return _booleanize(self.target_query)

    def same_mapping_as(self, other: "MappingCandidate") -> bool:
        """Same pair of connections covering the same correspondences."""
        if set(self.covered) != set(other.covered):
            return False
        return are_equivalent(
            self.boolean_source(), other.boolean_source()
        ) and are_equivalent(self.boolean_target(), other.boolean_target())

    def __str__(self) -> str:
        covered = ", ".join(str(c) for c in self.covered)
        return (
            f"[{self.method}] {self.source_query}  ⇒  {self.target_query}"
            f"  covering {{{covered}}}"
        )


def _booleanize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The body of ``query`` as a boolean (closed) query."""
    return ConjunctiveQuery([], query.body, query.name)


@dataclass(frozen=True)
class MappingSet:
    """The first-class discovery artifact: an immutable set of candidates.

    Wraps the ranked candidate tuple together with the provenance that
    makes it reusable downstream — the content-addressed fingerprint of
    the scenario it was discovered from and (when known) the scenario
    id. ``MappingSet`` is what :func:`repro.discover` hands back, what
    :mod:`repro.mappings.algebra` composes and compares, and what the
    versioned ``repro-mappings/1`` wire format serializes.

    The set iterates in rank order (best candidate first) and compares
    by value, so two discoveries of the same scenario produce equal
    sets.
    """

    candidates: tuple[MappingCandidate, ...] = ()
    fingerprint: str | None = None
    scenario_id: str | None = None

    @classmethod
    def of(
        cls,
        candidates: "MappingSet | MappingCandidate | Iterable[MappingCandidate]",
        *,
        fingerprint: str | None = None,
        scenario_id: str | None = None,
    ) -> "MappingSet":
        """Coerce candidates (or another set) into a :class:`MappingSet`."""
        if isinstance(candidates, MappingSet):
            return replace(
                candidates,
                fingerprint=fingerprint or candidates.fingerprint,
                scenario_id=scenario_id or candidates.scenario_id,
            )
        if isinstance(candidates, MappingCandidate):
            candidates = (candidates,)
        return cls(
            candidates=tuple(candidates),
            fingerprint=fingerprint,
            scenario_id=scenario_id,
        )

    def __iter__(self) -> Iterator[MappingCandidate]:
        return iter(self.candidates)

    def __len__(self) -> int:
        return len(self.candidates)

    def __bool__(self) -> bool:
        return bool(self.candidates)

    def __getitem__(self, index: int) -> MappingCandidate:
        return self.candidates[index]

    def best(self) -> MappingCandidate | None:
        """The top-ranked candidate, or ``None`` when empty."""
        return self.candidates[0] if self.candidates else None

    def to_tgds(self, prefix: str = "M") -> tuple[SourceToTargetTGD, ...]:
        """The candidates as named tgds (``M1``, ``M2``, ... by default)."""
        return tuple(
            candidate.to_tgd(f"{prefix}{index}")
            for index, candidate in enumerate(self.candidates, 1)
        )

    def render(self) -> str:
        """All candidates in the paper's tgd notation, one per line."""
        return "\n".join(tgd.render() for tgd in self.to_tgds())

    def dedup(self) -> "MappingSet":
        """This set with semantically equivalent candidates collapsed."""
        return replace(
            self, candidates=tuple(deduplicate_candidates(self.candidates))
        )

    def dumps(self, indent: int | None = 2) -> str:
        """Serialize in the versioned ``repro-mappings/1`` format."""
        from repro.mappings.serialize import dump_mapping_set

        return dump_mapping_set(self, indent=indent)

    @classmethod
    def loads(cls, text: str) -> "MappingSet":
        """Parse a ``repro-mappings/1`` document."""
        from repro.mappings.serialize import load_mapping_set

        return load_mapping_set(text)


def candidates_of(
    mapping: MappingSet | MappingCandidate | Iterable[MappingCandidate],
) -> tuple[MappingCandidate, ...]:
    """Normalize any of the accepted mapping shapes to a candidate tuple.

    The algebra and diff entry points accept a :class:`MappingSet`, a
    bare candidate, or any iterable of candidates; this is the single
    coercion point.
    """
    if isinstance(mapping, MappingSet):
        return mapping.candidates
    if isinstance(mapping, MappingCandidate):
        return (mapping,)
    return tuple(mapping)


def deduplicate_candidates(
    candidates: Sequence[MappingCandidate],
    *,
    criterion: str = "semantic",
) -> list[MappingCandidate]:
    """Drop candidates equivalent (per ``criterion``) to an earlier one.

    ``criterion="semantic"`` (the default, what :meth:`MappingSet.dedup`
    and the lifecycle algebra use) is *logical equivalence of the tgds*,
    checked by chasing (:func:`repro.mappings.algebra.equivalent`) —
    head-sensitive, so two candidates that wire exports differently
    (``q(x, y)`` vs ``q(y, x)``) both survive even though their bodies
    are boolean-equivalent. Candidates are bucketed by
    covered-correspondence set first: the paper treats the covered set
    as part of candidate identity, so candidates covering different
    correspondences are distinct artifacts and skip the (more
    expensive) chase check.

    ``criterion="connection"`` is the paper's within-one-discovery-run
    notion (:meth:`~MappingCandidate.same_mapping_as`): same pair of
    connections covering the same correspondences. Within a run the
    exports are determined by the correspondences, so alternative LAV
    rewritings of the same CSG pair — differing only in which
    corresponded table supplies a shared attribute — are one mapping.
    This is what the discovery engine's rank stage and the RIC baseline
    use; it is *not* sound for candidates of mixed provenance, where
    boolean-equivalent bodies can still wire exports differently.
    """
    if criterion == "connection":
        return _deduplicate_by_connection(candidates)
    if criterion != "semantic":
        raise ValueError(f"unknown dedup criterion: {criterion!r}")
    from repro.mappings.algebra import equivalent

    unique: list[MappingCandidate] = []
    buckets: dict[frozenset, list[MappingCandidate]] = {}
    for candidate in candidates:
        bucket = buckets.setdefault(frozenset(candidate.covered), [])
        if not any(equivalent(kept, candidate) for kept in bucket):
            bucket.append(candidate)
            unique.append(candidate)
    return unique


def _deduplicate_by_connection(
    candidates: Sequence[MappingCandidate],
) -> list[MappingCandidate]:
    """The paper's dedup: bucketed pairwise :meth:`same_mapping_as`.

    Candidates are bucketed by (covered set, source predicate set,
    target predicate set) before the pairwise equivalence checks: a
    homomorphism maps atoms predicate-preservingly, so mutually
    contained queries have equal predicate sets — candidates in
    different buckets are provably distinct and skip the check.
    """
    unique: list[MappingCandidate] = []
    buckets: dict[tuple, list[MappingCandidate]] = {}
    for candidate in candidates:
        key = (
            frozenset(candidate.covered),
            frozenset(atom.predicate for atom in candidate.source_query.body),
            frozenset(atom.predicate for atom in candidate.target_query.body),
        )
        bucket = buckets.setdefault(key, [])
        if not any(candidate.same_mapping_as(kept) for kept in bucket):
            bucket.append(candidate)
            unique.append(candidate)
    return unique


def _tables_of(query: ConjunctiveQuery) -> frozenset[str]:
    return frozenset(atom.bare_predicate for atom in query.body)


def trim_redundant_joins(
    candidates: list[MappingCandidate],
) -> list[MappingCandidate]:
    """Drop candidates whose joins add nothing over a leaner sibling.

    The paper's unnecessary-join heuristic (applied to the RIC baseline in
    Section 4, and implicitly by Example 3.4's pruning): among candidates
    covering the same correspondences, a candidate joining a strict
    superset of another's tables — on both sides — introduces no new
    corresponded attributes and is removed.
    """
    survivors: list[MappingCandidate] = []
    for index, candidate in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if index == other_index:
                continue
            if set(other.covered) != set(candidate.covered):
                continue
            source_sub = _tables_of(other.source_query) <= _tables_of(
                candidate.source_query
            )
            target_sub = _tables_of(other.target_query) <= _tables_of(
                candidate.target_query
            )
            strictly = (
                _tables_of(other.source_query)
                != _tables_of(candidate.source_query)
                or _tables_of(other.target_query)
                != _tables_of(candidate.target_query)
            )
            if source_sub and target_sub and strictly:
                dominated = True
                break
        if not dominated:
            survivors.append(candidate)
    return survivors


def query_to_algebra(
    query: ConjunctiveQuery, schema: RelationalSchema
) -> AlgebraExpression:
    """Convert a table-level CQ into a relational algebra expression.

    Each atom becomes a renamed base relation (columns renamed to the
    atom's variable names); shared variables join naturally; the head
    projects the exported variables. The result evaluates identically to
    :func:`repro.queries.datalog.evaluate_query` on any instance.
    """
    expression: AlgebraExpression | None = None
    for atom in query.body:
        table = schema.table(atom.bare_predicate)
        renaming = {}
        for column, term in zip(table.columns, atom.terms):
            if not isinstance(term, Variable):
                raise ValueError(
                    f"algebra conversion supports variable terms only, got "
                    f"{term} in {atom}"
                )
            if column != term.name:
                renaming[column] = term.name
        node: AlgebraExpression = BaseRelation(table.name)
        if renaming:
            node = Rename(node, renaming)
        expression = node if expression is None else NaturalJoin(expression, node)
    if expression is None:
        raise ValueError("cannot convert an empty query to algebra")
    head = [
        term.name for term in query.head_terms if isinstance(term, Variable)
    ]
    return Projection(expression, head)
