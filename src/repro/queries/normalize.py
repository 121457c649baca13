"""Key-aware normalization of table-level queries (egd chase).

The LAV rewriting joins view occurrences on shared variables; when a
table has a primary key, two atoms of that table agreeing on the key
positions denote the *same row*, so their remaining positions can be
unified and the atoms collapsed. This is the classical chase with the
key's functional dependencies, and is what turns the three-way
``employee`` self-join produced for Example 1.2's target into the single
atom a human would write.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
    substitute_atom,
    substitute_term,
    unify_terms,
)
from repro.relational.schema import RelationalSchema


class KeyPositions(Mapping[str, tuple[int, ...]]):
    """``table name → primary-key column positions`` of a schema's keyed
    tables, each computed the first time that table is looked up.

    A rewrite looks up only the tables its candidates mention, so a wide
    schema never pays for the positions of all its tables. Truth testing
    counts the keyed tables once and is O(1) after that.
    """

    __slots__ = ("_schema", "_positions", "_size")

    def __init__(self, schema: RelationalSchema) -> None:
        self._schema = schema
        # Table name → its key positions, ``()`` for an unkeyed table.
        self._positions: dict[str, tuple[int, ...]] = {}
        self._size: int | None = None

    def get(self, table: str, default=None):
        positions = self._positions.get(table)
        if positions is None:
            if not self._schema.has_table(table):
                return default
            found = self._schema.table(table)
            positions = tuple(
                found.columns.index(column) for column in found.primary_key
            )
            self._positions[table] = positions
        return positions or default

    def __getitem__(self, table: str) -> tuple[int, ...]:
        positions = self.get(table)
        if positions is None:
            raise KeyError(table)
        return positions

    def __iter__(self) -> Iterator[str]:
        return (table.name for table in self._schema if table.primary_key)

    def __len__(self) -> int:
        if self._size is None:
            self._size = sum(1 for _ in self)
        return self._size


def chase_with_keys(
    query: ConjunctiveQuery,
    key_positions: Mapping[str, tuple[int, ...]],
) -> ConjunctiveQuery | None:
    """Chase ``query`` with key dependencies; ``None`` when unsatisfiable.

    Repeatedly: find two body atoms over the same keyed table whose key
    terms are syntactically equal, unify their remaining terms, and
    substitute throughout. Conflicting constants make the query
    unsatisfiable (it can be dropped by the caller).
    """
    atoms = list(query.body)
    head = list(query.head_terms)
    changed = True
    while changed:
        changed = False
        # A chase step needs two atoms over the same keyed table, so only
        # keyed predicates occurring at least twice can possibly fire;
        # scanning same-predicate position pairs in ascending order visits
        # exactly the candidate pairs the full O(n²) sweep would match.
        by_predicate: dict[str, list[int]] = {}
        for position, atom in enumerate(atoms):
            if key_positions.get(atom.bare_predicate):
                by_predicate.setdefault(atom.predicate, []).append(position)
        if not any(len(group) >= 2 for group in by_predicate.values()):
            break
        for i in range(len(atoms)):
            first = atoms[i]
            group = by_predicate.get(first.predicate)
            if not group or len(group) < 2:
                continue
            positions = key_positions[first.bare_predicate]
            for j in group:
                if j <= i:
                    continue
                second = atoms[j]
                if first.arity != second.arity:
                    continue
                if any(
                    first.terms[p] != second.terms[p] for p in positions
                ):
                    continue
                preferred = {
                    term
                    for term in head
                    if isinstance(term, Variable)
                }
                substitution = _unify_rows(first, second, preferred)
                if substitution is None:
                    return None  # key violation: equal keys, clashing rows
                if substitution:
                    # Only atoms mentioning a substituted variable change.
                    atoms = [
                        substitute_atom(a, substitution)
                        if any(v in substitution for v in a.variables())
                        else a
                        for a in atoms
                    ]
                    head = [substitute_term(t, substitution) for t in head]
                # The two atoms are now identical: drop the duplicate so the
                # fixpoint loop terminates.
                deduped_pass: dict[Atom, None] = {}
                for atom in atoms:
                    deduped_pass.setdefault(atom)
                atoms = list(deduped_pass)
                changed = True
                break
            if changed:
                break
    deduped: dict[Atom, None] = {}
    for atom in atoms:
        deduped.setdefault(atom)
    # Chasing a safe query yields a safe query: head and body receive the
    # same substitutions and dedup keeps one copy of every atom.
    return ConjunctiveQuery(
        head, tuple(deduped), query.name, check_safety=False
    )


def _unify_rows(
    first: Atom, second: Atom, preferred: set[Variable]
) -> dict[Variable, Term] | None:
    """Row unifier that keeps head (correspondence) variables alive."""
    substitution: dict[Variable, Term] = {}
    for raw_left, raw_right in zip(first.terms, second.terms):
        left = substitute_term(raw_left, substitution)
        right = substitute_term(raw_right, substitution)
        if left == right:
            continue
        if isinstance(left, Variable) and isinstance(right, Variable):
            if left in preferred and right not in preferred:
                substitution[right] = left
            elif right in preferred and left not in preferred:
                substitution[left] = right
            else:
                keep, drop = sorted((left, right))
                substitution[drop] = keep
        elif isinstance(left, Variable):
            substitution[left] = right
        elif isinstance(right, Variable):
            substitution[right] = left
        else:
            extended = unify_terms(left, right, substitution)
            if extended is None:
                return None
            substitution = extended
    return substitution
