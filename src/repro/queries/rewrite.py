"""Rewriting CM-level queries into table-level queries (Section 3.4).

Table semantics are LAV views: ``T(X) → ∃Y.Φ(X,Y)`` with ``Φ`` a
conjunction of CM atoms. Following the paper (and Duschka–Genesereth
inverse rules), each CM atom of ``Φ`` yields an *inverse rule* whose head
is that atom with every existential variable replaced by a Skolem term
over the view's head variables, and whose body is the single table atom
``T(X)``.

Key information has already been folded in by the LAV construction
(:mod:`repro.semantics.lav`): an object variable identified by a key
column is *replaced* by that column variable, so most object positions
carry plain variables and only genuinely unidentified objects Skolemize.

:func:`rewrite_query` unfolds a conjunctive query atom-by-atom over the
inverse rules, keeps combinations whose unifier leaves the answer
Skolem-free, and prunes the result per Example 3.4: rewritings must
mention every *required* table (those linked by correspondences) and
rewritings contained in another are dropped.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.deadline import check_deadline
from repro.exceptions import RewritingError
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    DB_PREFIX,
    SkolemTerm,
    Term,
    Variable,
    contains_skolem,
    db_atom,
    rename_atom,
    substitute_atom,
    substitute_term,
    unify_atoms_inplace,
    variables_of,
)
from repro.perf import counters as perf_counters
from repro.queries.homomorphism import keep_maximal, minimize
from repro.queries.normalize import chase_with_keys


@dataclass(frozen=True, slots=True)
class LAVView:
    """One table's semantics: ``name(head) → ∃(body vars ∖ head). body``."""

    name: str
    head: tuple[Variable, ...]
    body: tuple[Atom, ...]

    def __init__(
        self, name: str, head: Sequence[Variable], body: Sequence[Atom]
    ) -> None:
        if not name:
            raise RewritingError("LAV view needs a table name")
        head_tuple = tuple(head)
        if len(set(head_tuple)) != len(head_tuple):
            raise RewritingError(
                f"LAV view {name!r} repeats head variables: {head_tuple}"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", head_tuple)
        object.__setattr__(self, "body", tuple(body))

    def existential_variables(self) -> tuple[Variable, ...]:
        head = set(self.head)
        result: dict[Variable, None] = {}
        for atom in self.body:
            for var in atom.variables():
                if var not in head:
                    result.setdefault(var)
        return tuple(result)

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        body = ", ".join(str(a) for a in self.body)
        return f"{DB_PREFIX}{self.name}({head}) → {body}"


@dataclass(frozen=True, slots=True)
class InverseRule:
    """``head :- body`` with ``head`` a CM atom and ``body`` a table atom."""

    head: Atom
    body: Atom

    def __str__(self) -> str:
        return f"{self.head} :- {self.body}"


def skolem_function_name(view_name: str, variable: Variable) -> str:
    """Deterministic Skolem function name for a view's existential var."""
    return f"f_{view_name}_{variable.name}"


def inverse_rules(view: LAVView) -> tuple[InverseRule, ...]:
    """The inverse rules of one LAV view (Example 3.4).

    >>> from repro.queries.conjunctive import cm_atom, Variable
    >>> x, pname = Variable("x"), Variable("pname")
    >>> view = LAVView("person", [pname],
    ...                [cm_atom("Person", x), cm_atom("hasName", x, pname)])
    >>> for rule in inverse_rules(view):
    ...     print(rule)
    O:Person(f_person_x(pname)) :- T:person(pname)
    O:hasName(f_person_x(pname), pname) :- T:person(pname)
    """
    skolems = {
        var: SkolemTerm(skolem_function_name(view.name, var), view.head)
        for var in view.existential_variables()
    }
    body_atom = db_atom(view.name, *view.head)
    return tuple(
        InverseRule(substitute_atom(atom, skolems), body_atom)
        for atom in view.body
    )


@runtime_checkable
class ViewSource(Protocol):
    """Where a rewrite plan reads its LAV views from, one at a time.

    ``tables_mentioning(predicate)`` returns the keys of a superset of
    the views whose body holds an atom over ``predicate``, in view
    order; ``view(key)`` returns one of those views.
    :class:`~repro.semantics.lav.SchemaSemantics` is a source keyed by
    table name that builds each view on first use.
    """

    def tables_mentioning(self, predicate: str) -> tuple[Hashable, ...]:
        ...

    def view(self, table: Hashable) -> LAVView:
        ...


class _ViewSequence:
    """A plain view sequence as a :class:`ViewSource`, keyed by position."""

    def __init__(self, views: Iterable[LAVView]) -> None:
        self._views = tuple(views)

    def tables_mentioning(self, predicate: str) -> tuple[int, ...]:
        return tuple(
            position
            for position, view in enumerate(self._views)
            if any(atom.predicate == predicate for atom in view.body)
        )

    def view(self, table: int) -> LAVView:
        return self._views[table]


def _rename_rule(rule: InverseRule, suffix: str) -> InverseRule:
    mapping: dict[Variable, Term] = {}
    for atom in (rule.head, rule.body):
        for var in atom.variables():
            mapping.setdefault(var, Variable(var.name + suffix))
    return InverseRule(
        rename_atom(rule.head, mapping), rename_atom(rule.body, mapping)
    )


class _RewritePlan:
    """Unfolding state for one view source, filled on demand.

    Building inverse rules repeats identically for every query over the
    same schema, so the plan caches it. ``rule_index[p]`` is filled the
    first time a query mentions predicate ``p``: the rules with head
    predicate ``p`` of every view the source reports as mentioning
    ``p``, in view order and then body order. That is exactly the list
    one pass over all views would build, so the enumeration order and
    its ``limit`` window never depend on which views were built. Each
    view's inverse rules are derived once (``_view_rules``).

    The copies renamed apart for one atom occurrence are built per call
    and not kept: their suffix is deterministic, so a rebuilt copy is
    the same rule, and holding one copy per (predicate, occurrence)
    made the renamed rules most of a plan's memory for little time.
    The plan never holds its source (plans are weakly keyed by it):
    callers pass it in.
    """

    __slots__ = ("rule_index", "_view_rules")

    def __init__(self) -> None:
        self.rule_index: dict[str, tuple[InverseRule, ...]] = {}
        self._view_rules: dict[Hashable, tuple[InverseRule, ...]] = {}

    def rules(
        self, source: ViewSource, predicate: str
    ) -> tuple[InverseRule, ...]:
        rules = self.rule_index.get(predicate)
        if rules is None:
            collected: list[InverseRule] = []
            for table in source.tables_mentioning(predicate):
                view_rules = self._view_rules.get(table)
                if view_rules is None:
                    view_rules = inverse_rules(source.view(table))
                    self._view_rules[table] = view_rules
                collected.extend(
                    rule
                    for rule in view_rules
                    if rule.head.predicate == predicate
                )
            rules = tuple(collected)
            self.rule_index[predicate] = rules
        return rules

    def renamed_candidates(
        self, source: ViewSource, predicate: str, occurrence: int
    ) -> tuple[InverseRule, ...]:
        suffix = f"_{occurrence}"
        return tuple(
            _rename_rule(rule, suffix)
            for rule in self.rules(source, predicate)
        )


#: Rewrite plans, weakly keyed by their view source: a semantics' plan
#: dies with the semantics, a wrapped view sequence's with its call.
_PLANS: "weakref.WeakKeyDictionary[ViewSource, _RewritePlan]" = (
    weakref.WeakKeyDictionary()
)


def clear_rewrite_caches() -> None:
    """Drop every cached rewrite plan.

    ``repro.perf.clear_caches`` calls this so a forced-cold run rebuilds
    plans from scratch.
    """
    _PLANS.clear()


#: The enumeration cap of :func:`rewrite_query` and of composition.
REWRITE_LIMIT = 256


#: Sentinel for candidates that count toward the enumeration limit but
#: are dropped early (missing a required table). Keeping them in the
#: count preserves the exact enumeration window of the unfiltered search.
_FILTERED = object()


#: Maps one rule per query atom and their unifier to the result to
#: yield, ``None`` (dropped, uncounted) or ``_FILTERED`` (dropped, counted).
Finish = Callable[[list[InverseRule], dict[Variable, Term]], object]


def _rewriting_finish(
    query: ConjunctiveQuery, required_bare: frozenset[str]
) -> Finish:
    """:func:`rewrite_query`'s ``finish``: the table-level query, or
    ``None`` when its answer or body keeps a Skolem term."""
    query_variables = query.variables()
    query_var_set = set(query_variables)

    def finish(
        chosen: list[InverseRule], substitution: dict[Variable, Term]
    ) -> ConjunctiveQuery | object | None:
        # The substitution is fixed for the whole combination and join
        # variables recur across atoms, so chase each distinct term's
        # binding chain once.
        resolved: dict[Term, Term] = {}

        def lookup(term: Term) -> Term:
            image = resolved.get(term)
            if image is None:
                image = substitute_term(term, substitution)
                resolved[term] = image
            return image

        head_terms = [lookup(term) for term in query.head_terms]
        if any(contains_skolem(term) for term in head_terms):
            return None
        body_atoms = [
            Atom(rule.body.predicate, [lookup(t) for t in rule.body.terms])
            for rule in chosen
        ]
        if any(
            contains_skolem(term) for atom in body_atoms for term in atom.terms
        ):
            return None
        # From here the candidate is countable. Candidates missing a
        # required table are dropped without paying for renaming and
        # query construction — chase and minimization only remove atoms,
        # so they could never regain the table downstream.
        if required_bare and not required_bare <= {
            rule.body.bare_predicate for rule in chosen
        }:
            return _FILTERED
        # Prefer the query's own variable names over the renamed-apart view
        # variables they unified with, for readable output.
        rename: dict[Variable, Term] = {}
        for query_var in query_variables:
            image = lookup(query_var)
            if (
                isinstance(image, Variable)
                and image != query_var
                and image not in query_var_set
                and image not in rename
            ):
                rename[image] = query_var
        if rename:
            head_terms = [
                substitute_term(term, rename) for term in head_terms
            ]
            body_atoms = [
                substitute_atom(atom, rename) for atom in body_atoms
            ]
        # Safe by construction: every non-Skolem head image also occurs
        # in the image of the view body it unified with.
        return ConjunctiveQuery(
            head_terms, body_atoms, query.name, check_safety=False
        )

    return finish


def _candidate_rewritings(
    query: ConjunctiveQuery,
    source: ViewSource,
    plan: _RewritePlan,
    limit: int,
    finish: Finish,
    required_bare: frozenset[str] = frozenset(),
) -> Iterator[object]:
    """``finish`` of every unifying choice of one inverse rule per atom.

    The one CQ-over-views enumerator: :func:`rewrite_query` and
    :func:`repro.mappings.algebra.compose` differ only in ``finish``.
    Rules are renamed apart per atom occurrence (suffix ``_<i>``).
    """
    body = query.body
    per_atom_rules: list[tuple[InverseRule, ...]] = []
    for occurrence, atom in enumerate(body):
        matches = plan.renamed_candidates(source, atom.predicate, occurrence)
        if not matches:
            return  # Some atom has no view covering it: no rewriting.
        per_atom_rules.append(matches)

    # Required-table subtree pruning. A subtree whose chosen rules plus
    # every rule still choosable downstream cannot mention some required
    # table only produces candidates ``finish`` would mark ``_FILTERED``.
    # Skipping them is only exact when the ``limit`` window provably
    # cannot bind — filtered candidates count toward ``produced`` — so
    # the mode is enabled iff the total number of rule combinations is
    # at most ``limit``: then enumeration always runs to completion and
    # the count is irrelevant.
    suffix_tables: tuple[frozenset[str], ...] | None = None
    if required_bare:
        product = 1
        for matches in per_atom_rules:
            product *= len(matches)
            if product > limit:
                break
        if product <= limit:
            accumulated: frozenset[str] = frozenset()
            suffixes = [accumulated]
            for matches in reversed(per_atom_rules):
                accumulated = accumulated | frozenset(
                    rule.body.bare_predicate for rule in matches
                )
                suffixes.append(accumulated)
            suffixes.reverse()  # suffixes[d]: tables reachable from depth d
            suffix_tables = tuple(suffixes)
    state = _Walk(
        body, per_atom_rules, limit, finish, required_bare, suffix_tables
    )
    yield from state.walk(0)
    if state.truncated:
        # Rule combinations past the cap were never tried: count it, so
        # the truncation is not silent.
        perf_counters.record("rewrite_limit_hits")


class _Walk:
    """The state of one :func:`_candidate_rewritings` enumeration.

    Depth-first over rule choices, in exactly ``itertools.product``'s
    enumeration order, but sharing the unification work of common
    prefixes: a prefix that fails to unify prunes its whole subtree
    (those combinations would each have failed at the same atom).
    The substitution lives in a single dict with a trail (undo log)
    instead of being copied at every extension.

    The state is an object, not the cells of a nested generator that
    calls itself: such a generator is a reference cycle, which would
    keep every enumeration's substitution, trail and renamed rules
    alive until the cycle collector ran. :meth:`walk` recurses through
    a bound method made per call and never stored on the object.
    """

    __slots__ = (
        "body",
        "per_atom_rules",
        "limit",
        "finish",
        "required_bare",
        "suffix_tables",
        "produced",
        "truncated",
        "chosen",
        "substitution",
        "trail",
        "table_counts",
    )

    def __init__(
        self,
        body: tuple[Atom, ...],
        per_atom_rules: list[tuple[InverseRule, ...]],
        limit: int,
        finish: Finish,
        required_bare: frozenset[str],
        suffix_tables: tuple[frozenset[str], ...] | None,
    ) -> None:
        self.body = body
        self.per_atom_rules = per_atom_rules
        self.limit = limit
        self.finish = finish
        self.required_bare = required_bare
        self.suffix_tables = suffix_tables
        self.produced = 0
        self.truncated = False
        self.chosen: list[InverseRule] = []
        self.substitution: dict[Variable, Term] = {}
        self.trail: list[Variable] = []
        self.table_counts: dict[str, int] = {}

    def walk(self, depth: int) -> Iterator[object]:
        if depth == len(self.body):
            check_deadline()
            result = self.finish(self.chosen, self.substitution)
            if result is not None:
                self.produced += 1
                if result is not _FILTERED:
                    yield result
            return
        suffix_tables = self.suffix_tables
        table_counts = self.table_counts
        if suffix_tables is not None:
            reachable = suffix_tables[depth]
            for table in self.required_bare:
                if table not in reachable and not table_counts.get(table):
                    perf_counters.record("required_subtree_prunes")
                    return
        pattern = self.body[depth]
        rules = self.per_atom_rules[depth]
        chosen = self.chosen
        substitution = self.substitution
        trail = self.trail
        for index, rule in enumerate(rules):
            mark = len(trail)
            if unify_atoms_inplace(pattern, rule.head, substitution, trail):
                chosen.append(rule)
                if suffix_tables is not None:
                    bare = rule.body.bare_predicate
                    table_counts[bare] = table_counts.get(bare, 0) + 1
                yield from self.walk(depth + 1)
                chosen.pop()
                if suffix_tables is not None:
                    table_counts[bare] -= 1
            while len(trail) > mark:
                del substitution[trail.pop()]
            if self.produced >= self.limit:
                # Only a stop with rule choices left untried truncates;
                # an enumeration that ends exactly at the cap is whole.
                self.truncated = self.truncated or index + 1 < len(rules)
                return


def rewrite_query(
    query: ConjunctiveQuery,
    views: Sequence[LAVView] | ViewSource,
    required_tables: Iterable[str] = (),
    limit: int = REWRITE_LIMIT,
    key_positions: Mapping[str, tuple[int, ...]] | None = None,
) -> list[ConjunctiveQuery]:
    """All maximal table-level rewritings of a CM-level query.

    Parameters
    ----------
    query:
        A conjunctive query over ``O:`` predicates.
    views:
        The LAV table semantics of one schema: a :class:`ViewSource`
        (such as a ``SchemaSemantics``, whose rewrite plan is kept for
        the next call and builds only the views the query's predicates
        need) or a plain sequence of views (planned for this call only).
    required_tables:
        Table names that every surviving rewriting must mention —
        the paper requires rewritings to "mention tables that have
        columns linked by the correspondences".
    limit:
        Cap on the number of Skolem-free candidates the enumeration
        produces, counting those dropped for missing a required table;
        the walk stops once it is reached. Must be at least 1.

    Returns the surviving rewritings, deterministically ordered with the
    most specific (largest-body) queries first — matching the paper's
    preference for the most faithful expression (``q'₃`` over ``q'₁``).

    Each candidate is chased, minimized, checked for the required
    tables and merged into the antichain of maximal rewritings as soon
    as it is produced (:func:`keep_maximal`), so a call holds its
    survivors, not its candidates. The result is the same as pruning
    the sorted list of all candidates: among equivalent rewritings the
    one earliest in that order survives, and among equal keys the one
    generated first.
    """
    if limit < 1:
        raise RewritingError(f"rewrite limit must be at least 1, got {limit}")
    for atom in query.body:
        if not atom.is_cm_atom:
            raise RewritingError(
                f"rewrite_query expects O: atoms, got {atom.predicate!r}"
            )
    source = views if isinstance(views, ViewSource) else _ViewSequence(views)
    plan = _PLANS.get(source)
    if plan is None:
        plan = _RewritePlan()
        _PLANS[source] = plan
    required = frozenset(required_tables)
    kept: list[ConjunctiveQuery] = []
    finish = _rewriting_finish(query, required)
    for candidate in _candidate_rewritings(
        query, source, plan, limit, finish, required
    ):
        if key_positions:
            # Collapse same-key atoms (egd chase), dropping rewritings
            # that become unsatisfiable.
            chased = chase_with_keys(candidate, key_positions)
            if chased is None:
                continue
            candidate = chased
        candidate = minimize(candidate)
        if required and not required <= {
            atom.bare_predicate for atom in candidate.body
        }:
            continue
        keep_maximal([candidate], kept, key=_RewritingOrder)
    kept.sort(key=_RewritingOrder)
    return kept


class _RewritingOrder:
    """Sort key of a rewriting: larger bodies (more faithful) first, then
    text, as ``(-len(query.body), str(query))`` orders them.

    The text is built only to break a tie in body size, which for two
    minimized rewritings one contains means, nearly always, two
    equivalent ones; it is built once per query and kept on the query
    for the final sort.
    """

    __slots__ = ("query", "size")

    def __init__(self, query: ConjunctiveQuery) -> None:
        self.query = query
        self.size = -len(query.body)

    def __lt__(self, other: "_RewritingOrder") -> bool:
        if self.size != other.size:
            return self.size < other.size
        return _text(self.query) < _text(other.query)


def _text(query: ConjunctiveQuery) -> str:
    text = getattr(query, "_rewriting_text", None)
    if text is None:
        text = str(query)
        query._rewriting_text = text
    return text
