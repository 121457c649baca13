"""Data exchange: executing GLAV mappings on source instances.

Given a set of s-t tgds and a source instance, :func:`exchange` computes a
*canonical universal solution* by one round of the chase
(:func:`chase_round`): each source row becomes a ground ``T:`` fact
(:func:`~repro.queries.datalog.table_facts`, shared with query
evaluation), every homomorphism of a tgd's premise into those facts
fires its conclusion, and target-existential variables become labeled
nulls named by Skolem terms over the exported values (Section 1's
observation that "Skolem functions are generally used to represent
existentially quantified variables"). :mod:`repro.mappings.algebra`
runs the same round over frozen premises to decide implication between
mappings.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.exceptions import QueryError
from repro.mappings.tgd import SourceToTargetTGD
from repro.queries.conjunctive import (
    Atom,
    SkolemTerm,
    Term,
    Variable,
    substitute_atom,
    substitute_term,
)
from repro.queries.datalog import table_facts
from repro.queries.homomorphism import _FactIndex, _homomorphisms, _profile
from repro.relational.instance import Instance, LabeledNull
from repro.relational.schema import RelationalSchema


def skolem_function(tgd_name: str, variable: Variable) -> str:
    """The Skolem-function symbol for one tgd existential.

    One naming convention shared by the whole lifecycle: the chase
    instantiates a tgd's existentials as
    :class:`~repro.queries.conjunctive.SkolemTerm` applications of this
    symbol to the exported terms, :func:`exchange` writes them as labeled
    nulls of the same name, and :mod:`repro.mappings.algebra` uses the
    same symbols when composing mappings — so a composed mapping's
    provenance reads like the exchange nulls it stands for.
    """
    return f"{tgd_name}:{variable.name}"


def chase_round(
    tgds: Iterable[SourceToTargetTGD], source_facts: Sequence[Atom]
) -> tuple[Atom, ...]:
    """One chase round of s-t tgds over ground source facts.

    Every homomorphism of a tgd's premise into the source facts fires
    the conclusion, with existential variables instantiated as
    :class:`SkolemTerm` applications of the :func:`skolem_function`
    symbols over the exported terms, so two firings agreeing on exports
    share their Skolem terms. Source and target facts are kept apart, so
    same-named tables on both sides of an evolution hop cannot feed a
    premise with chased facts — which also makes the single round
    complete. The produced facts come back deduplicated, in firing order.
    """
    facts = _FactIndex(source_facts)
    produced: dict[Atom, None] = {}
    for tgd in tgds:
        exported_map = list(
            zip(tgd.source.head_terms, tgd.target.head_terms)
        )
        existentials = tgd.existential_variables()
        ordered = _profile(tgd.source).ordered
        for hom in _homomorphisms(ordered, facts, {}):
            binding: dict[Variable, Term] = {}
            export_values: list[Term] = []
            for source_term, target_term in exported_map:
                value = substitute_term(source_term, hom)
                export_values.append(value)
                if isinstance(target_term, Variable):
                    binding[target_term] = value
            for variable in existentials:
                binding[variable] = SkolemTerm(
                    skolem_function(tgd.name, variable),
                    tuple(export_values),
                )
            for atom in tgd.target.body:
                produced.setdefault(substitute_atom(atom, binding))
    return tuple(produced)


def exchange(
    tgds: Sequence[SourceToTargetTGD],
    source_instance: Instance,
    target_schema: RelationalSchema,
) -> Instance:
    """Chase the source instance with the tgds into a target instance.

    Labeled nulls are deterministic functions of (tgd, variable, exported
    values), so repeated runs produce identical instances and two tgd
    firings agreeing on exports share nulls. A null is labelled with its
    Skolem term, such as ``M3:x('ann')``.
    """
    source_facts = table_facts(
        (atom for tgd in tgds for atom in tgd.source.body), source_instance
    )
    target = Instance(target_schema)
    for atom in chase_round(tgds, source_facts):
        if not atom.is_db_atom:
            raise QueryError(
                f"target body must use T: atoms, got {atom.predicate!r}"
            )
        target.add(atom.bare_predicate, [_value(term) for term in atom.terms])
    return target


def _value(term: Term) -> Hashable:
    """A chased term as an instance value: a Skolem term is a labeled null."""
    if isinstance(term, SkolemTerm):
        values = ",".join(repr(argument.value) for argument in term.arguments)
        return LabeledNull(f"{term.function}({values})")
    return term.value


def certain_rows(instance: Instance, table_name: str) -> tuple[tuple, ...]:
    """Rows of a table containing no labeled nulls (certain answers)."""
    return tuple(
        row
        for row in instance.rows(table_name)
        if not any(isinstance(value, LabeledNull) for value in row)
    )


def isomorphic_instances(first: Instance, second: Instance) -> bool:
    """True when the instances agree up to a renaming of labeled nulls.

    Constants must match exactly; labeled nulls may differ in label as
    long as some bijection between the two null sets maps the first
    instance's rows onto the second's, table by table.  This is the
    equivalence that matters for canonical universal solutions: two
    exchange runs are "the same solution" iff they are null-isomorphic.
    """
    tables_first = sorted(first.schema.tables)
    tables_second = sorted(second.schema.tables)
    if tables_first != tables_second:
        return False
    todo: list[tuple[tuple, int, tuple[tuple, ...]]] = []
    for table_index, name in enumerate(tables_first):
        rows_a = tuple(first.rows(name))
        rows_b = tuple(second.rows(name))
        if len(rows_a) != len(rows_b):
            return False
        todo.extend((row, table_index, rows_b) for row in rows_a)
    return _match_rows(todo, 0, {}, {}, set())


def _match_rows(
    todo: Sequence[tuple[tuple, int, tuple[tuple, ...]]],
    position: int,
    forward: dict[LabeledNull, LabeledNull],
    backward: dict[LabeledNull, LabeledNull],
    used: set[tuple[int, int]],
) -> bool:
    """Backtracking search for a null bijection matching rows onto rows."""
    if position == len(todo):
        return True
    row, table_index, rows_b = todo[position]
    for candidate_index, candidate in enumerate(rows_b):
        if (table_index, candidate_index) in used:
            continue
        trail: list[LabeledNull] = []
        if _rows_unify(row, candidate, forward, backward, trail):
            used.add((table_index, candidate_index))
            if _match_rows(todo, position + 1, forward, backward, used):
                return True
            used.discard((table_index, candidate_index))
        for null in trail:
            backward.pop(forward.pop(null), None)
    return False


def _rows_unify(row_a, row_b, forward, backward, trail) -> bool:
    if len(row_a) != len(row_b):
        return False
    for value_a, value_b in zip(row_a, row_b):
        null_a = isinstance(value_a, LabeledNull)
        null_b = isinstance(value_b, LabeledNull)
        if null_a != null_b:
            return False
        if not null_a:
            if value_a != value_b:
                return False
            continue
        if value_a in forward:
            if forward[value_a] != value_b:
                return False
            continue
        if value_b in backward:
            return False
        forward[value_a] = value_b
        backward[value_b] = value_a
        trail.append(value_a)
    return True
