"""Homomorphisms, containment, and equivalence of conjunctive queries.

Classical theory (Chandra–Merkurjev): ``q1 ⊆ q2`` iff there is a
*containment mapping* from ``q2`` into ``q1`` — a substitution of ``q2``'s
variables that sends every body atom of ``q2`` onto a body atom of ``q1``
and the head onto the head. The search is exponential in the worst case
but the queries this library produces are tiny (a handful of atoms).

Used for: eliminating redundant rewritings (Example 3.4's ``q'₂ ⊆ q'₃``),
deduplicating candidate mappings, and comparing generated mappings against
benchmark mappings in the evaluation harness. The same matcher, run for
every solution over a :class:`_FactIndex` of ground facts
(:func:`_homomorphisms`), fires tgd premises in the chase round of
:mod:`repro.mappings.exchange` and answers queries over instances in
:mod:`repro.queries.datalog`.

Containment checks sit on discovery's hottest path (every candidate
rewriting is minimized and then compared against the kept ones in
:func:`keep_maximal`), so the search here is engineered for speed while
staying *extensionally identical* to the naive formulation:

* each query lazily carries a :class:`_QueryProfile` — its body atoms
  pre-sorted most-constrained-first, a predicate index, and signature
  sets (predicates, constants, Skolem functions) used to reject
  impossible mappings without any search;
* the backtracking search binds variables in one mutable dict with a
  trail (undo log) instead of copying the substitution at every step,
  and only consults target atoms of the matching predicate;
* both changes preserve the exact search order of the original
  atom-by-atom formulation, so the *first* mapping found — and therefore
  the value :func:`containment_mapping` returns — is unchanged.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Term,
    Variable,
    variables_of,
)


# ---------------------------------------------------------------------------
# One-way matching with a trail (no per-step dict copies)
# ---------------------------------------------------------------------------


def _match_term_mut(
    pattern: Term,
    target: Term,
    mapping: dict[Variable, Term],
    trail: list[Variable],
) -> bool:
    """Bind ``pattern``'s variables so it matches ``target``, in place.

    Constants match themselves and Skolem terms match same-function
    Skolem terms argument by argument. Every new binding is pushed onto
    ``trail`` so the caller can undo a failed branch with
    :func:`_undo_to`.
    """
    if isinstance(pattern, Variable):
        bound = mapping.get(pattern)
        if bound is None:
            mapping[pattern] = target
            trail.append(pattern)
            return True
        return bound == target
    if isinstance(pattern, Constant):
        return pattern == target
    if isinstance(pattern, SkolemTerm):
        if (
            not isinstance(target, SkolemTerm)
            or pattern.function != target.function
            or len(pattern.arguments) != len(target.arguments)
        ):
            return False
        for p_arg, t_arg in zip(pattern.arguments, target.arguments):
            if not _match_term_mut(p_arg, t_arg, mapping, trail):
                return False
        return True
    return False


def _undo_to(
    mapping: dict[Variable, Term], trail: list[Variable], mark: int
) -> None:
    while len(trail) > mark:
        del mapping[trail.pop()]


# ---------------------------------------------------------------------------
# Per-query search profile (lazily cached on the query object)
# ---------------------------------------------------------------------------


def _term_signature(
    term: Term, constants: set[object], functions: set[str]
) -> int:
    """Collect constants/Skolem functions; return the variable count."""
    if isinstance(term, Variable):
        return 1
    if isinstance(term, Constant):
        constants.add(term.value)
        return 0
    count = 0
    functions.add(term.function)
    for argument in term.arguments:
        count += _term_signature(argument, constants, functions)
    return count


class _QueryProfile:
    """Precomputed search structure of one query's body."""

    __slots__ = ("ordered", "by_predicate", "predicates", "constants", "functions")

    def __init__(self, query: ConjunctiveQuery) -> None:
        constants: set[object] = set()
        functions: set[str] = set()
        variable_counts: dict[Atom, int] = {}
        by_predicate: dict[str, list[Atom]] = {}
        for atom in query.body:
            count = 0
            for term in atom.terms:
                count += _term_signature(term, constants, functions)
            variable_counts[atom] = count
            by_predicate.setdefault(atom.predicate, []).append(atom)
        # Most-constrained-first, stable over body order — identical to
        # ``sorted(body, key=lambda a: -sum(1 for _ in a.variables()))``.
        self.ordered: tuple[Atom, ...] = tuple(
            sorted(query.body, key=lambda atom: -variable_counts[atom])
        )
        self.by_predicate: dict[str, tuple[Atom, ...]] = {
            predicate: tuple(atoms)
            for predicate, atoms in by_predicate.items()
        }
        self.predicates: frozenset[tuple[str, int]] = frozenset(
            (atom.predicate, atom.arity) for atom in query.body
        )
        self.constants: frozenset = frozenset(constants)
        self.functions: frozenset[str] = frozenset(functions)


def _profile(query: ConjunctiveQuery) -> _QueryProfile:
    profile = getattr(query, "_hom_profile", None)
    if profile is None:
        profile = _QueryProfile(query)
        query._hom_profile = profile  # lazily cached; queries are immutable
    return profile


def _cannot_map(outer: _QueryProfile, inner: _QueryProfile) -> bool:
    """Sound fast rejection of a hom ``outer`` → ``inner``.

    Every outer body atom must land on an inner atom of the same
    predicate and arity; constants map to themselves and Skolem terms to
    same-function Skolem terms, so outer's constants/functions must all
    occur in inner. Necessary conditions only — a ``False`` answer just
    means the full search runs.
    """
    return not (
        outer.predicates <= inner.predicates
        and outer.constants <= inner.constants
        and outer.functions <= inner.functions
    )


def _homomorphisms(
    atoms: tuple[Atom, ...],
    facts: "_FactIndex",
    mapping: dict[Variable, Term],
) -> Iterator[dict[Variable, Term]]:
    """Every homomorphism extending ``mapping``, depth-first.

    Each pattern atom reads only the facts :meth:`_FactIndex.candidates`
    leaves it, in fact order. The search binds variables in one dict
    with a trail, as :func:`_find_homomorphism` does, and yields a copy
    of it per solution; ``mapping`` itself is left as it was.
    """
    return _search_facts(atoms, facts, dict(mapping), [], 0)


def _search_facts(
    atoms: tuple[Atom, ...],
    facts: "_FactIndex",
    bindings: dict[Variable, Term],
    trail: list[Variable],
    depth: int,
) -> Iterator[dict[Variable, Term]]:
    """:func:`_homomorphisms` from ``atoms[depth]`` on.

    A module-level function, not a closure over the search state: a
    nested function that calls itself is a reference cycle, and every
    call would leave its bindings to the cycle collector.
    """
    if depth == len(atoms):
        yield dict(bindings)
        return
    pattern = atoms[depth]
    for target in facts.candidates(pattern, bindings):
        if pattern.arity != target.arity:
            continue
        mark = len(trail)
        for p_term, t_term in zip(pattern.terms, target.terms):
            if not _match_term_mut(p_term, t_term, bindings, trail):
                break
        else:
            yield from _search_facts(atoms, facts, bindings, trail, depth + 1)
        _undo_to(bindings, trail, mark)


def _bucket_atoms(body: Sequence[Atom]) -> dict[str, tuple[Atom, ...]]:
    buckets: dict[str, list[Atom]] = {}
    for atom in body:
        buckets.setdefault(atom.predicate, []).append(atom)
    return {predicate: tuple(atoms) for predicate, atoms in buckets.items()}


class _FactIndex:
    """Facts bucketed by predicate, looked up by a bound position's value.

    :meth:`candidates` narrows a pattern atom's bucket to the facts that
    agree with the pattern at its first constant or already-bound
    variable, through a ``(predicate, position)`` → value → facts index
    built on first use. A narrowed list keeps fact order and
    drops only facts that fail to match at that position, so the
    successful matches come in the same sequence as from a full scan.
    """

    __slots__ = ("_buckets", "_by_value")

    def __init__(self, facts: Sequence[Atom]) -> None:
        self._buckets = _bucket_atoms(facts)
        self._by_value: dict[tuple[str, int], dict[Term, list[Atom]]] = {}

    def candidates(
        self, pattern: Atom, mapping: dict[Variable, Term]
    ) -> Sequence[Atom]:
        for position, term in enumerate(pattern.terms):
            if isinstance(term, Variable):
                value = mapping.get(term)
                if value is None:
                    continue
            elif isinstance(term, Constant):
                value = term
            else:
                continue
            key = (pattern.predicate, position)
            index = self._by_value.get(key)
            if index is None:
                index = self._by_value[key] = {}
                for fact in self._buckets.get(pattern.predicate, ()):
                    if position < len(fact.terms):
                        index.setdefault(fact.terms[position], []).append(
                            fact
                        )
            return index.get(value, ())
        return self._buckets.get(pattern.predicate, ())


def _find_homomorphism(
    ordered: tuple[Atom, ...],
    target_buckets: dict[str, tuple[Atom, ...]],
    mapping: dict[Variable, Term],
) -> dict[Variable, Term] | None:
    """First homomorphism extending ``mapping``, by depth-first search.

    Candidate target atoms per pattern atom are read from the target's
    predicate index in body order — the same sequence of *successful*
    matches as scanning the full body, so the first solution found is
    identical to the naive search. Recursion depth is bounded by the
    (small) outer body size. ``mapping`` is extended in place.
    """
    if _search_buckets(ordered, target_buckets, mapping, [], 0):
        return mapping
    return None


def _search_buckets(
    ordered: tuple[Atom, ...],
    target_buckets: dict[str, tuple[Atom, ...]],
    mapping: dict[Variable, Term],
    trail: list[Variable],
    depth: int,
) -> bool:
    """:func:`_find_homomorphism` from ``ordered[depth]`` on.

    Module-level for the reason :func:`_search_facts` is: a closure
    that calls itself would make every containment check a cycle.
    """
    if depth == len(ordered):
        return True
    pattern = ordered[depth]
    for atom in target_buckets.get(pattern.predicate, ()):
        if pattern.arity != atom.arity:
            continue
        mark = len(trail)
        for p_term, t_term in zip(pattern.terms, atom.terms):
            if not _match_term_mut(p_term, t_term, mapping, trail):
                break
        else:
            if _search_buckets(
                ordered, target_buckets, mapping, trail, depth + 1
            ):
                return True
        _undo_to(mapping, trail, mark)
    return False


def containment_mapping(
    outer: ConjunctiveQuery, inner: ConjunctiveQuery
) -> dict[Variable, Term] | None:
    """A containment mapping from ``outer`` into ``inner``, if any.

    Its existence proves ``inner ⊆ outer``: the mapping sends ``outer``'s
    head terms onto ``inner``'s head terms (positionally) and every body
    atom of ``outer`` onto some body atom of ``inner``.
    """
    if len(outer.head_terms) != len(inner.head_terms):
        return None
    outer_profile = _profile(outer)
    inner_profile = _profile(inner)
    if _cannot_map(outer_profile, inner_profile):
        return None
    mapping: dict[Variable, Term] = {}
    trail: list[Variable] = []
    for o_term, i_term in zip(outer.head_terms, inner.head_terms):
        if not _match_term_mut(o_term, i_term, mapping, trail):
            return None
    ordered = outer_profile.ordered
    if not ordered:
        return mapping
    return _find_homomorphism(ordered, inner_profile.by_predicate, mapping)


def is_contained_in(inner: ConjunctiveQuery, outer: ConjunctiveQuery) -> bool:
    """``inner ⊆ outer`` under set semantics."""
    return containment_mapping(outer, inner) is not None


def are_equivalent(first: ConjunctiveQuery, second: ConjunctiveQuery) -> bool:
    """Semantic equivalence: containment in both directions."""
    return is_contained_in(first, second) and is_contained_in(second, first)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of ``query``: remove body atoms while staying equivalent.

    Computes a minimal equivalent subquery by greedy deletion; the result
    is unique up to isomorphism (the classical *core*). Only atoms whose
    predicate occurs more than once can possibly be folded onto another
    atom, so queries over distinct tables minimize in O(1). Dropping an
    atom always yields a superset query (fewer constraints), so only the
    ``candidate ⊆ query`` direction needs checking.
    """
    body = list(query.body)
    # The pattern side of every containment check is the *original* query,
    # so its ordered atoms are computed once.
    ordered = _profile(query).ordered
    head_variables: set[Variable] = set()
    for term in query.head_terms:
        head_variables.update(variables_of(term))
    changed = True
    while changed:
        changed = False
        predicate_counts: dict[str, int] = {}
        for atom in body:
            predicate_counts[atom.predicate] = (
                predicate_counts.get(atom.predicate, 0) + 1
            )
        if all(count < 2 for count in predicate_counts.values()):
            break  # no atom has anywhere to map: already minimal
        atom_variables = [set(atom.variables()) for atom in body]
        variable_counts: dict[Variable, int] = {}
        for variables in atom_variables:
            for variable in variables:
                variable_counts[variable] = (
                    variable_counts.get(variable, 0) + 1
                )
        base_buckets = _bucket_atoms(body)
        for index in range(len(body)):
            atom = body[index]
            if predicate_counts[atom.predicate] < 2:
                continue  # nowhere for this atom to map: never droppable
            if any(
                variable_counts[variable] == 1
                for variable in head_variables & atom_variables[index]
            ):
                continue  # dropping would leave a head variable unbound
            candidate_body = body[:index] + body[index + 1:]
            # query ⊆ candidate holds by the identity mapping (candidate's
            # atoms are a subset of query's), so equivalence reduces to
            # candidate ⊆ query — a homomorphism from the full query into
            # the candidate body that fixes the head. No intermediate
            # ConjunctiveQuery needs to be built to test that.
            buckets = dict(base_buckets)
            buckets[atom.predicate] = tuple(
                other for other in base_buckets[atom.predicate]
                if other != atom
            )
            mapping: dict[Variable, Term] = {
                variable: variable
                for term in query.head_terms
                for variable in variables_of(term)
            }
            if _find_homomorphism(ordered, buckets, mapping) is not None:
                body = candidate_body
                changed = True
                break
    # Safety is preserved: atoms are only dropped when no head variable
    # loses its last body occurrence (guard above).
    return ConjunctiveQuery(
        query.head_terms, body, query.name, check_safety=False
    )


def keep_maximal(
    queries: Iterable[ConjunctiveQuery],
    kept: list[ConjunctiveQuery] | None = None,
    key: Callable[[ConjunctiveQuery], Any] | None = None,
) -> list[ConjunctiveQuery]:
    """Drop queries strictly contained in another of the list.

    This is the pruning step of Example 3.4: ``q'₂ ⊆ q'₃`` eliminates
    ``q'₂``. Among equivalent queries, the first (in list order) is kept.

    The queries are admitted one at a time into an antichain: one query
    per maximal class, in the order the survivors arrived. A query some
    kept query contains is dropped; otherwise it evicts every kept query
    it contains and joins them. The members of an antichain are pairwise
    incomparable, so they are never checked against each other: an
    admission costs O(k) containment checks against an antichain of k,
    and the antichain is all the state there is. A caller that produces
    queries one by one can therefore prune as it goes.

    ``kept`` is an antichain from earlier calls to merge into; it is
    updated in place and returned (by default the fold starts empty).
    ``key`` orders equivalent queries: a query takes the place of an
    equivalent kept one whose key is larger, and joins the antichain as
    its newest arrival (equal keys keep the one that came first). A
    query equivalent to one member is below no other and above none, so
    nothing else changes. Sorting the result stably by ``key`` then
    gives exactly ``keep_maximal(sorted(queries, key=key))``, whatever
    order the queries arrived in. ``key`` is only called for a query
    some kept query contains.
    """
    if kept is None:
        kept = []
    for query in queries:
        for index, other in enumerate(kept):
            if is_contained_in(query, other):
                if (
                    key is not None
                    and key(query) < key(other)
                    and is_contained_in(other, query)
                ):
                    del kept[index]
                    kept.append(query)
                break
        else:
            kept[:] = [
                other for other in kept if not is_contained_in(other, query)
            ]
            kept.append(query)
    return kept
