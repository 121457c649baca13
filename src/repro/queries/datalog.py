"""Evaluation of conjunctive queries over relational instances.

A non-recursive, backtracking join evaluator: body atoms must be ``T:``
(table) atoms whose predicates name tables of the instance's schema.
:func:`evaluate_query` answers a query over an instance: verification
(:mod:`repro.mappings.verify`) checks mappings with it, and tests check
it against the relational-algebra evaluator. Executing a mapping is the
chase round of :mod:`repro.mappings.exchange`.
"""

from __future__ import annotations

from typing import Hashable, Iterator

from repro.exceptions import QueryError
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Term,
    Variable,
)
from repro.relational.instance import Instance

Binding = dict[Variable, Hashable]


def _match_row(
    atom: Atom, row: tuple, binding: Binding
) -> Binding | None:
    """Extend ``binding`` so ``atom`` matches ``row``, or return ``None``."""
    extended = dict(binding)
    for term, value in zip(atom.terms, row):
        if isinstance(term, Variable):
            if term in extended:
                if extended[term] != value:
                    return None
            else:
                extended[term] = value
        elif isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            raise QueryError(
                f"cannot evaluate atom with Skolem term: {atom}"
            )
    return extended


def _join(
    atoms: tuple[Atom, ...], instance: Instance, binding: Binding
) -> Iterator[Binding]:
    if not atoms:
        yield binding
        return
    first, rest = atoms[0], atoms[1:]
    if not first.is_db_atom:
        raise QueryError(
            f"evaluation requires T: atoms, got {first.predicate!r}"
        )
    table_name = first.bare_predicate
    table = instance.schema.table(table_name)
    if table.arity != first.arity:
        raise QueryError(
            f"atom {first} has arity {first.arity} but table "
            f"{table_name!r} has {table.arity} columns"
        )
    for row in instance.rows(table_name):
        extended = _match_row(first, row, binding)
        if extended is not None:
            yield from _join(rest, instance, extended)


def _evaluate_head(term: Term, binding: Binding) -> Hashable:
    if isinstance(term, Variable):
        return binding[term]
    if isinstance(term, Constant):
        return term.value
    raise QueryError(f"cannot evaluate head term {term}")


def evaluate_query(
    query: ConjunctiveQuery, instance: Instance
) -> frozenset[tuple]:
    """All answer tuples of ``query`` over ``instance`` (set semantics).

    >>> from repro.relational import Instance, RelationalSchema, Table
    >>> from repro.queries.conjunctive import db_atom, Variable
    >>> schema = RelationalSchema("s", [Table("r", ["a", "b"])])
    >>> inst = Instance.from_dict(schema, {"r": [(1, 2), (1, 3)]})
    >>> x, y = Variable("x"), Variable("y")
    >>> q = ConjunctiveQuery([x], [db_atom("r", x, y)])
    >>> sorted(evaluate_query(q, inst))
    [(1,)]
    """
    # Order atoms so highly shared variables bind early (cheap heuristic).
    ordered = tuple(
        sorted(query.body, key=lambda a: (-a.arity, a.predicate))
    )
    answers = set()
    for binding in _join(ordered, instance, {}):
        answers.add(
            tuple(_evaluate_head(term, binding) for term in query.head_terms)
        )
    return frozenset(answers)

