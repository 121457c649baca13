"""The mapping lifecycle algebra: compose and containment.

Discovered mappings stop being terminal artifacts here. Two operations
turn one-shot discovery into continuous mapping maintenance:

* :func:`compose` — collapse a schema-evolution chain S→T→U into a
  direct S→U mapping: the first mapping's tgds become LAV views, the
  second mapping's premise is rewritten over them by inverse rules (the
  walk of :mod:`repro.queries.rewrite`), and each chosen view is
  unfolded into its tgd's premise (cf. Arenas/Pérez/Reutter/Riveros on
  mapping composition and evolution, PAPERS.md).
* :func:`implies` / :func:`contains` / :func:`equivalent` — logical
  containment between mappings (Calì–Torlone), decided by the chase:
  freeze the premise of the candidate to be derived into a canonical
  instance, chase it with the other mapping by the round that
  :func:`~repro.mappings.exchange.exchange` runs
  (:func:`~repro.mappings.exchange.chase_round`), and look for the
  frozen conclusion among the chased facts via the CQ homomorphism
  machinery of :mod:`repro.queries.homomorphism`. Because the tgds here
  are source-to-target (premises over source tables only), a single
  chase round is complete.

All entry points accept a :class:`~repro.mappings.expression.MappingSet`,
a bare :class:`~repro.mappings.expression.MappingCandidate`, or any
iterable of candidates.
"""

from __future__ import annotations

from repro.correspondences import Correspondence
from repro.exceptions import QueryError
from repro.mappings.exchange import chase_round
from repro.mappings.expression import (
    MappingCandidate,
    MappingSet,
    candidates_of,
)
from repro.mappings.tgd import SourceToTargetTGD
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Term,
    Variable,
    substitute_atom,
    substitute_term,
)
from repro.queries.homomorphism import (
    _bucket_atoms,
    _find_homomorphism,
    minimize,
)
from repro.queries.rewrite import (
    REWRITE_LIMIT,
    InverseRule,
    LAVView,
    _FILTERED,
    _candidate_rewritings,
    _RewritePlan,
    _ViewSequence,
)

MappingLike = "MappingSet | MappingCandidate | list[MappingCandidate]"


# ---------------------------------------------------------------------------
# Containment and equivalence (chase-based implication)
# ---------------------------------------------------------------------------


def _frozen_constant(variable: Variable) -> Constant:
    """The canonical-instance constant standing for ``variable``."""
    return Constant(("⊥frozen", variable.name))


def implies(first: MappingLike, second: MappingLike) -> bool:
    """True when ``first`` logically entails ``second``.

    Every instance pair satisfying all of ``first``'s tgds then satisfies
    all of ``second``'s. Decided candidate-by-candidate with the chase:
    freeze the candidate's premise into a canonical source instance,
    chase it with ``first``, and search for a homomorphic image of the
    candidate's conclusion — with the shared (exported) variables pinned
    to their frozen constants — among the chased facts.
    """
    premise_tgds = MappingSet.of(first).to_tgds("L")
    for candidate in candidates_of(second):
        goal = candidate.to_tgd("G")
        freeze = {
            variable: _frozen_constant(variable)
            for variable in goal.source.body_variables()
        }
        source_facts = tuple(
            substitute_atom(atom, freeze) for atom in goal.source.body
        )
        chased = chase_round(premise_tgds, source_facts)
        pinned: dict[Variable, Term] = {
            variable: freeze[variable]
            for variable in goal.target.body_variables()
            if variable in freeze
        }
        if (
            _find_homomorphism(
                tuple(goal.target.body), _bucket_atoms(chased), pinned
            )
            is None
        ):
            return False
    return True


def contains(first: MappingLike, second: MappingLike) -> bool:
    """``second`` is contained in ``first``: ``first`` entails it."""
    return implies(first, second)


def equivalent(first: MappingLike, second: MappingLike) -> bool:
    """Logical equivalence: entailment in both directions."""
    return implies(first, second) and implies(second, first)


def minimize_mapping_set(mapping: MappingLike) -> MappingSet:
    """Drop candidates entailed by the remaining ones.

    The logical minimization of a tgd set: a candidate is redundant when
    the others already imply it. Keeps the earliest (highest-ranked)
    witnesses; the surviving set is equivalent to the input.
    """
    source = MappingSet.of(mapping)
    kept = list(source.candidates)
    index = len(kept) - 1
    while index >= 0:
        rest = kept[:index] + kept[index + 1 :]
        if rest and implies(rest, kept[index]):
            kept = rest
        index -= 1
    return MappingSet(
        candidates=tuple(kept),
        fingerprint=source.fingerprint,
        scenario_id=source.scenario_id,
    )


# ---------------------------------------------------------------------------
# Composition (S→T ∘ T→U = S→U: rewrite over LAV views, then unfold)
# ---------------------------------------------------------------------------


def _first_hop_view(tgd: SourceToTargetTGD) -> LAVView:
    """First-hop tgd ``φ(x̄) → ∃z̄ ψ(x̄, z̄)`` as the view ``name(x̄) ⊇ ψ``.

    The head is the exported variables, so the inverse rules Skolemize
    exactly the tgd's existentials over its exports: two firings that
    agree on exports share their nulls, as two exchange firings do.
    """
    head = dict.fromkeys(
        term
        for term in (*tgd.source.head_terms, *tgd.target.head_terms)
        if isinstance(term, Variable)
    )
    return LAVView(tgd.name, tuple(head), tgd.target.body)


def _normalize_names(
    source_query: ConjunctiveQuery,
    target_query: ConjunctiveQuery,
    origin: dict[Variable, Variable],
) -> tuple[ConjunctiveQuery, ConjunctiveQuery]:
    """Give renamed-apart variables back their ``origin`` names.

    Shared variables keep one consistent name across both queries;
    clashes fall back to numbered names deterministically.
    """
    variables: dict[Variable, None] = {}
    for query in (source_query, target_query):
        for variable in query.variables():
            variables.setdefault(variable)
    renaming: dict[Variable, Variable] = {}
    taken: set[str] = set()
    for variable in variables:
        base = origin.get(variable, variable).name
        name = base
        counter = 1
        while name in taken:
            counter += 1
            name = f"{base}_{counter}"
        taken.add(name)
        renaming[variable] = Variable(name)
    return source_query.rename(renaming), target_query.rename(renaming)


def _compose_pair(
    first_candidates: tuple[MappingCandidate, ...],
    first_hop: dict[str, tuple[int, LAVView, SourceToTargetTGD]],
    views: _ViewSequence,
    plan: _RewritePlan,
    second: MappingCandidate,
    second_index: int,
) -> list[MappingCandidate]:
    tgd = second.to_tgd(f"R{second_index}")
    renaming = {
        variable: Variable(variable.name + "·r")
        for variable in {*tgd.source.variables(), *tgd.target.variables()}
    }
    premise = tgd.source.rename(renaming)
    conclusion = tgd.target.rename(renaming)
    premise_origin = {new: old for old, new in renaming.items()}

    def finish(
        chosen: list[InverseRule], theta: dict[Variable, Term]
    ) -> MappingCandidate | object:
        # Unfold each chosen view into its tgd's premise: exported
        # variables take the view atom's arguments, the others are
        # renamed apart per premise atom. A ``·`` suffix cannot clash
        # with the walk's ``_<i>`` renaming or the premise's ``·r``.
        origin = dict(premise_origin)
        positions: set[int] = set()
        source_body: list[Atom] = []
        for occurrence, rule in enumerate(chosen):
            position, view, first_tgd = first_hop[rule.body.bare_predicate]
            positions.add(position)
            unfolding: dict[Variable, Term] = dict(
                zip(view.head, rule.body.terms)
            )
            for variable in first_tgd.source.variables():
                unfolding.setdefault(
                    variable, Variable(f"{variable.name}·{occurrence}")
                )
            origin.update(
                (renamed, original) for original, renamed in unfolding.items()
            )
            source_body.extend(
                substitute_atom(atom, theta)
                for atom in first_tgd.source.rename(unfolding).body
            )
        # A source value equal to a labeled null: no source instance
        # holds nulls, so exchanging twice never fires this unfolding.
        # Dropped unfoldings still count toward the walk's limit, so
        # premises whose every unfolding is dropped stay bounded too.
        if any(
            isinstance(term, SkolemTerm)
            for atom in source_body
            for term in atom.terms
        ):
            return _FILTERED
        target_body = tuple(
            substitute_atom(atom, theta) for atom in conclusion.body
        )
        exports = [
            substitute_term(term, theta) for term in premise.head_terms
        ]
        # Surviving Skolem terms are values no source attribute
        # determines: they become existentials of the composed tgd, and
        # any export position carrying one is dropped from the head.
        taken = {
            variable.name
            for atom in (*source_body, *target_body)
            for variable in atom.variables()
        }
        fresh: dict[Term, Variable] = {}
        counter = 0
        for atom in target_body:
            for term in atom.terms:
                if isinstance(term, SkolemTerm) and term not in fresh:
                    counter += 1
                    name = f"e{counter}"
                    while name in taken:
                        counter += 1
                        name = f"e{counter}"
                    taken.add(name)
                    fresh[term] = Variable(name)
        target_body = tuple(
            Atom(atom.predicate, [fresh.get(t, t) for t in atom.terms])
            for atom in target_body
        )
        source_head = []
        target_head = []
        dropped = 0
        for term in exports:
            if isinstance(term, SkolemTerm):
                dropped += 1
                continue
            source_head.append(term)
            target_head.append(term)
        try:
            source_query = minimize(
                ConjunctiveQuery(source_head, source_body)
            )
            target_query = minimize(
                ConjunctiveQuery(target_head, target_body)
            )
            source_query, target_query = _normalize_names(
                source_query, target_query, origin
            )
        except QueryError:
            return _FILTERED
        ordered = sorted(positions)
        used = [first_candidates[position - 1] for position in ordered]
        notes = (
            "composed "
            + "+".join(f"M{position}" for position in ordered)
            + f"∘R{second_index}"
        )
        if dropped:
            notes += f" ({dropped} export(s) lost to nulls)"
        return MappingCandidate(
            source_query=source_query,
            target_query=target_query,
            covered=_join_covered(used, second),
            method="composed",
            notes=notes,
            source_optional_tables=frozenset().union(
                *(candidate.source_optional_tables for candidate in used)
            ),
        )

    return list(
        _candidate_rewritings(premise, views, plan, REWRITE_LIMIT, finish)
    )


def _join_covered(
    firsts: list[MappingCandidate], second: MappingCandidate
) -> tuple[Correspondence, ...]:
    """Relational join of covered correspondences on the middle schema."""
    joined: dict[Correspondence, None] = {}
    for first in firsts:
        for left in first.covered:
            for right in second.covered:
                if left.target == right.source:
                    joined.setdefault(
                        Correspondence(left.source, right.target)
                    )
    return tuple(sorted(joined))


def compose(
    first: MappingLike,
    second: MappingLike,
    *,
    prune: bool = True,
) -> MappingSet:
    """Compose an S→T mapping with a T→U mapping into a direct S→U one.

    Each first-hop tgd ``φ(x̄) → ∃z̄ ψ(x̄, z̄)`` is the LAV view
    ``V(x̄) ⊇ ψ`` plus the unfolding ``V := φ`` (Arenas, Pérez, Reutter
    and Riveros). For every candidate of ``second``, its premise (a CQ
    over the middle schema T) is rewritten over those views by the same
    walk as :func:`~repro.queries.rewrite.rewrite_query`, with its limit
    (``rewrite_limit_hits`` counts a premise cut short, in the caller's
    ``perf_counters.scope()``) and its checks of a deadline the caller
    arms (``POST /compose`` arms the server's job timeout), and each
    rewriting unfolded into a composed
    candidate whose premise is over S and conclusion over U. Exported
    values that only a labeled null would carry through T become
    existentials of the composed tgd (noted on the candidate), matching
    what :func:`~repro.mappings.exchange.exchange` run twice would
    preserve; an unfolding that needs a source value to equal a labeled
    null is left out (but counted toward the limit), since a source
    instance holds no nulls. With
    ``prune`` (default), the result is semantically deduplicated and
    logically minimized via :func:`minimize_mapping_set`.
    """
    first_candidates = candidates_of(first)
    first_hop: dict[str, tuple[int, LAVView, SourceToTargetTGD]] = {}
    for position, candidate in enumerate(first_candidates, 1):
        tgd = candidate.to_tgd(f"M{position}")
        view = _first_hop_view(tgd)
        first_hop[view.name] = (position, view, tgd)
    views = _ViewSequence(view for _, view, _ in first_hop.values())
    plan = _RewritePlan()
    composed: list[MappingCandidate] = []
    for index, candidate in enumerate(candidates_of(second), 1):
        composed.extend(
            _compose_pair(
                first_candidates, first_hop, views, plan, candidate, index
            )
        )
    result = MappingSet.of(composed)
    if prune:
        result = minimize_mapping_set(result.dedup())
    return result

