"""Conjunctive queries, terms, and unification.

The library manipulates two vocabularies, distinguished by a predicate
prefix exactly as the paper does:

* ``O:`` — conceptual-model predicates: unary class predicates, binary
  attribute predicates, binary relationship predicates;
* ``T:`` — relational table predicates.

Terms are variables, constants, or Skolem terms (uninterpreted function
applications, used by the inverse-rule rewriting of Section 3.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.exceptions import QueryError

#: Namespace prefixes, following the paper's notation.
CM_PREFIX = "O:"
DB_PREFIX = "T:"


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
#
# Terms and atoms cache their hash at construction. String hashes are
# salted per process (``PYTHONHASHSEED``), so each class pickles as a call
# to its constructor: a copy loaded by another process (the disk tier, a
# sibling worker) recomputes the hash instead of carrying a stale one.
#
# Terms, atoms and queries are slotted, so none carries an instance dict
# (one made an atom with its variables cached about twice as large).
# Lazily cached values are declared slots, left unset until first use.


@dataclass(frozen=True, order=True)
class Variable:
    """A query variable."""

    __slots__ = ("name", "_hash")

    name: str

    def __post_init__(self) -> None:
        # Same value the generated __hash__ would compute, but paid once
        # at construction instead of on every dictionary operation.
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Variable, (self.name,)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Constant:
    """A constant value embedded in a query."""

    __slots__ = ("value", "_hash")

    value: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Constant, (self.value,)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, order=True)
class SkolemTerm:
    """An uninterpreted function application ``f(t1, ..., tn)``."""

    __slots__ = ("function", "arguments", "_hash")

    function: str
    arguments: tuple["Term", ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.function, self.arguments))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return SkolemTerm, (self.function, self.arguments)

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arguments)
        return f"{self.function}({args})"


Term = Variable | Constant | SkolemTerm


def variables_of(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in (possibly nested) ``term``."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, SkolemTerm):
        for argument in term.arguments:
            yield from variables_of(argument)


def contains_skolem(term: Term) -> bool:
    return isinstance(term, SkolemTerm)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Atom:
    """A predicate applied to terms."""

    __slots__ = ("predicate", "terms", "_hash", "_bare", "_variables")

    predicate: str
    terms: tuple[Term, ...]

    def __init__(self, predicate: str, terms: Sequence[Term]) -> None:
        if not predicate:
            raise QueryError("atom predicate must be non-empty")
        terms_tuple = tuple(terms)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "terms", terms_tuple)
        object.__setattr__(self, "_hash", hash((predicate, terms_tuple)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return Atom, (self.predicate, self.terms)

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def is_cm_atom(self) -> bool:
        return self.predicate.startswith(CM_PREFIX)

    @property
    def is_db_atom(self) -> bool:
        return self.predicate.startswith(DB_PREFIX)

    @property
    def bare_predicate(self) -> str:
        """Predicate name without the namespace prefix (cached)."""
        cached = getattr(self, "_bare", None)
        if cached is None:
            cached = self.predicate
            for prefix in (CM_PREFIX, DB_PREFIX):
                if cached.startswith(prefix):
                    cached = cached[len(prefix):]
                    break
            object.__setattr__(self, "_bare", cached)
        return cached

    def variables(self) -> tuple[Variable, ...]:
        """Every variable occurrence in term order (with repeats).

        The tuple is computed once and cached on the (frozen) atom —
        variable scans are pervasive on the rewriting hot path.
        """
        cached = getattr(self, "_variables", None)
        if cached is None:
            cached = tuple(
                var for term in self.terms for var in variables_of(term)
            )
            object.__setattr__(self, "_variables", cached)
        return cached

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({args})"


def cm_atom(name: str, *terms: Term) -> Atom:
    """An ``O:``-namespaced (conceptual-model) atom."""
    return Atom(CM_PREFIX + name, terms)


def db_atom(name: str, *terms: Term) -> Atom:
    """A ``T:``-namespaced (relational table) atom."""
    return Atom(DB_PREFIX + name, terms)


# ---------------------------------------------------------------------------
# Substitutions and unification
# ---------------------------------------------------------------------------

Substitution = Mapping[Variable, Term]


def substitute_term(term: Term, subst: Substitution) -> Term:
    """Apply a substitution to a term, recursing through Skolem arguments.

    Variable chains like ``{x: y, y: z}`` are chased iteratively (this
    is the hottest function of the rewriting path), and a Skolem term
    none of whose arguments change is returned as-is instead of being
    rebuilt.
    """
    if not subst:
        return term
    while type(term) is Variable:
        replacement = subst.get(term, term)
        if replacement is term or replacement == term:
            return term if replacement is term else replacement
        if type(replacement) is Variable:
            term = replacement
            continue
        term = replacement
        break
    if type(term) is SkolemTerm:
        arguments = tuple(
            substitute_term(a, subst) for a in term.arguments
        )
        if all(a is b for a, b in zip(arguments, term.arguments)):
            return term
        return SkolemTerm(term.function, arguments)
    return term


def substitute_atom(atom: Atom, subst: Substitution) -> Atom:
    return Atom(atom.predicate, [substitute_term(t, subst) for t in atom.terms])


def rename_term(term: Term, renaming: Substitution) -> Term:
    """Replace each variable of ``term`` by its image, once.

    Unlike :func:`substitute_term`, an image is not looked up again:
    ``{x: y, y: x}`` swaps ``x`` and ``y``, and ``{x: x_0, x_0: x_0_0}``
    keeps ``x`` and ``x_0`` apart instead of merging them into
    ``x_0_0``.
    """
    if type(term) is Variable:
        return renaming.get(term, term)
    if type(term) is SkolemTerm:
        return SkolemTerm(
            term.function,
            tuple(rename_term(a, renaming) for a in term.arguments),
        )
    return term


def rename_atom(atom: Atom, renaming: Substitution) -> Atom:
    return Atom(atom.predicate, [rename_term(t, renaming) for t in atom.terms])


def _occurs(variable: Variable, term: Term, subst: dict[Variable, Term]) -> bool:
    term = substitute_term(term, subst)
    if term == variable:
        return True
    if isinstance(term, SkolemTerm):
        return any(_occurs(variable, a, subst) for a in term.arguments)
    return False


def unify_terms(
    left: Term, right: Term, subst: dict[Variable, Term] | None = None
) -> dict[Variable, Term] | None:
    """Most-general unifier of two terms, extending ``subst``.

    Returns the extended substitution or ``None`` when unification fails.
    The input substitution is never mutated.
    """
    result = dict(subst or {})
    if not _unify_into(left, right, result):
        return None
    return result


def _unify_into(
    left: Term,
    right: Term,
    subst: dict[Variable, Term],
    trail: list[Variable] | None = None,
) -> bool:
    left = substitute_term(left, subst)
    right = substitute_term(right, subst)
    if left == right:
        return True
    if isinstance(left, Variable):
        if _occurs(left, right, subst):
            return False
        subst[left] = right
        if trail is not None:
            trail.append(left)
        return True
    if isinstance(right, Variable):
        return _unify_into(right, left, subst, trail)
    if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
        if left.function != right.function or len(left.arguments) != len(
            right.arguments
        ):
            return False
        return all(
            _unify_into(a, b, subst, trail)
            for a, b in zip(left.arguments, right.arguments)
        )
    return False


def unify_atoms(
    left: Atom, right: Atom, subst: dict[Variable, Term] | None = None
) -> dict[Variable, Term] | None:
    """Most-general unifier of two atoms, or ``None``."""
    if left.predicate != right.predicate or left.arity != right.arity:
        return None
    result = dict(subst or {})
    for a, b in zip(left.terms, right.terms):
        if not _unify_into(a, b, result):
            return None
    return result


def unify_atoms_inplace(
    left: Atom,
    right: Atom,
    subst: dict[Variable, Term],
    trail: list[Variable],
) -> bool:
    """Unify two atoms by extending ``subst`` in place.

    New bindings are appended to ``trail``; on failure ``subst`` may hold
    partial bindings, so the caller must roll back to its trail mark.
    Produces exactly the bindings :func:`unify_atoms` would, without the
    per-step dictionary copy.
    """
    if left.predicate != right.predicate or left.arity != right.arity:
        return False
    for a, b in zip(left.terms, right.terms):
        if not _unify_into(a, b, subst, trail):
            return False
    return True


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------


class ConjunctiveQuery:
    """``name(head) :- body`` with set semantics.

    Head terms are usually variables but constants are permitted (useful
    when rendering partially instantiated queries). Safety is enforced:
    every head variable must occur in the body.

    ``_hom_profile`` (the containment-search profile,
    :mod:`repro.queries.homomorphism`) and ``_rewriting_text`` (the sort
    text of :mod:`repro.queries.rewrite`) are per-process caches, unset
    until first use and never pickled.
    """

    __slots__ = (
        "name",
        "head_terms",
        "body",
        "_hom_profile",
        "_rewriting_text",
    )

    def __init__(
        self,
        head_terms: Sequence[Term],
        body: Sequence[Atom],
        name: str = "ans",
        *,
        check_safety: bool = True,
    ) -> None:
        """``check_safety=False`` skips the head-variable scan.

        Only for callers that guarantee safety structurally (e.g. the
        rewriting engine, whose transformations preserve it); public
        construction should keep the check on.
        """
        self.name = name
        self.head_terms: tuple[Term, ...] = tuple(head_terms)
        # Dedup body atoms while preserving first-seen order.
        seen: dict[Atom, None] = {}
        for atom in body:
            seen.setdefault(atom)
        self.body: tuple[Atom, ...] = tuple(seen)
        if check_safety:
            body_vars = set(self.body_variables())
            for term in self.head_terms:
                for var in variables_of(term):
                    if var not in body_vars:
                        raise QueryError(
                            f"unsafe query: head variable {var} not in body"
                        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def head_variables(self) -> tuple[Variable, ...]:
        result: dict[Variable, None] = {}
        for term in self.head_terms:
            for var in variables_of(term):
                result.setdefault(var)
        return tuple(result)

    def body_variables(self) -> tuple[Variable, ...]:
        result: dict[Variable, None] = {}
        for atom in self.body:
            for var in atom.variables():
                result.setdefault(var)
        return tuple(result)

    def variables(self) -> tuple[Variable, ...]:
        result: dict[Variable, None] = {}
        for var in itertools.chain(self.head_variables(), self.body_variables()):
            result.setdefault(var)
        return tuple(result)

    def existential_variables(self) -> tuple[Variable, ...]:
        head = set(self.head_variables())
        return tuple(v for v in self.body_variables() if v not in head)

    def predicates(self) -> frozenset[str]:
        return frozenset(atom.predicate for atom in self.body)

    def atoms_with(self, predicate: str) -> tuple[Atom, ...]:
        return tuple(a for a in self.body if a.predicate == predicate)

    def has_skolems(self) -> bool:
        return any(
            contains_skolem(term)
            for atom in self.body
            for term in atom.terms
        ) or any(contains_skolem(term) for term in self.head_terms)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, subst: Substitution) -> "ConjunctiveQuery":
        return ConjunctiveQuery(
            [substitute_term(t, subst) for t in self.head_terms],
            [substitute_atom(a, subst) for a in self.body],
            self.name,
        )

    def rename(self, renaming: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """:func:`rename_term` over every term: each variable is replaced
        by its image once, unlike :meth:`substitute`, which chases."""
        return ConjunctiveQuery(
            [rename_term(t, renaming) for t in self.head_terms],
            [rename_atom(a, renaming) for a in self.body],
            self.name,
        )

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable by appending ``suffix`` (freshening)."""
        return self.rename(
            {v: Variable(v.name + suffix) for v in self.variables()}
        )

    def with_name(self, name: str) -> "ConjunctiveQuery":
        return ConjunctiveQuery(self.head_terms, self.body, name)

    # ------------------------------------------------------------------
    # Equality and rendering
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Syntactic equality modulo body-atom order (not renaming)."""
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self.head_terms == other.head_terms
            and frozenset(self.body) == frozenset(other.body)
        )

    def __hash__(self) -> int:
        return hash((self.head_terms, frozenset(self.body)))

    def __getstate__(self) -> tuple:
        # The cache slots stay behind: only the query itself travels.
        return self.name, self.head_terms, self.body

    def __setstate__(self, state: tuple) -> None:
        self.name, self.head_terms, self.body = state

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head_terms)
        body = ", ".join(str(a) for a in sorted(self.body))
        return f"{self.name}({head}) :- {body}"

    def __repr__(self) -> str:
        return f"<CQ {self}>"


class _VariableFactory:
    """Generates globally fresh variables (for chase steps etc.)."""

    def __init__(self, prefix: str = "_v") -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)

    def __call__(self, hint: str = "") -> Variable:
        return Variable(f"{self._prefix}{hint}{next(self._counter)}")


VariableFactory = _VariableFactory
