"""Evaluation of conjunctive queries over relational instances.

Body atoms must be ``T:`` (table) atoms whose predicates name tables of
the instance's schema. :func:`table_facts` turns the rows of the tables
a body names into ground ``T:`` facts, and :func:`evaluate_query` reads
a query's answers from the homomorphisms of its body into those facts —
the search the chase round of :mod:`repro.mappings.exchange` fires tgd
premises with, over the same value index. Verification
(:mod:`repro.mappings.verify`) checks mappings with it, and tests check
it against the relational-algebra evaluator.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import QueryError
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Variable,
    db_atom,
)
from repro.queries.homomorphism import _FactIndex, _homomorphisms, _profile
from repro.relational.instance import Instance


def table_facts(atoms: Iterable[Atom], instance: Instance) -> tuple[Atom, ...]:
    """The rows of every table ``atoms`` name, as ground ``T:`` facts.

    Every atom is checked before any row is read: it must be a ``T:``
    atom (:class:`QueryError`) over a table of the instance's schema
    (:class:`~repro.exceptions.SchemaError`) with that table's arity
    (:class:`QueryError`). Tables come in order of first mention, each
    with its rows in instance order.
    """
    tables: dict[str, None] = {}
    for atom in atoms:
        if not atom.is_db_atom:
            raise QueryError(
                f"expected a T: atom over a table, got {atom.predicate!r}"
            )
        table = instance.schema.table(atom.bare_predicate)
        if table.arity != atom.arity:
            raise QueryError(
                f"atom {atom} has arity {atom.arity} but table "
                f"{table.name!r} has {table.arity} columns"
            )
        tables.setdefault(table.name)
    return tuple(
        db_atom(table, *map(Constant, row))
        for table in tables
        for row in instance.rows(table)
    )


def evaluate_query(
    query: ConjunctiveQuery, instance: Instance
) -> frozenset[tuple]:
    """All answer tuples of ``query`` over ``instance`` (set semantics).

    A Skolem term anywhere in the query is a :class:`QueryError`, and
    every body atom is checked as :func:`table_facts` does, even when
    another atom's table is empty.

    >>> from repro.relational import Instance, RelationalSchema, Table
    >>> from repro.queries.conjunctive import db_atom, Variable
    >>> schema = RelationalSchema("s", [Table("r", ["a", "b"])])
    >>> inst = Instance.from_dict(schema, {"r": [(1, 2), (1, 3)]})
    >>> x, y = Variable("x"), Variable("y")
    >>> q = ConjunctiveQuery([x], [db_atom("r", x, y)])
    >>> sorted(evaluate_query(q, inst))
    [(1,)]
    """
    body_terms = (term for atom in query.body for term in atom.terms)
    for term in (*query.head_terms, *body_terms):
        if isinstance(term, SkolemTerm):
            raise QueryError(f"cannot evaluate Skolem term {term} in {query}")
    facts = _FactIndex(table_facts(query.body, instance))
    return frozenset(
        tuple(
            (binding[term] if isinstance(term, Variable) else term).value
            for term in query.head_terms
        )
        for binding in _homomorphisms(_profile(query).ordered, facts, {})
    )
