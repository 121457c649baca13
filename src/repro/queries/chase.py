"""The symbolic chase with inclusion dependencies.

The RIC-based baseline (Section 1, "Current Solution") assembles *logical
relations* by chasing a table atom with the schema's referential integrity
constraints: whenever a child atom's foreign-key terms have no matching
parent atom, the parent atom is added with fresh variables in its other
positions. The fixpoint is the join expression of "logically connected
elements".

Cyclic RICs (e.g. an employee's manager referencing employees) would make
the naive chase run forever; a configurable depth bound cuts such loops,
mirroring how practical systems bound the chase tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import QueryError
from repro.perf import counters as perf_counters
from repro.queries.conjunctive import (
    Atom,
    Term,
    Variable,
    VariableFactory,
)
from repro.relational.constraints import ReferentialConstraint
from repro.relational.schema import RelationalSchema


@dataclass(frozen=True)
class InclusionDependency:
    """A positional inclusion dependency between two predicates.

    ``child_predicate[child_positions] ⊆ parent_predicate[parent_positions]``
    """

    child_predicate: str
    child_positions: tuple[int, ...]
    parent_predicate: str
    parent_positions: tuple[int, ...]
    parent_arity: int

    def __post_init__(self) -> None:
        if len(self.child_positions) != len(self.parent_positions):
            raise QueryError(
                "inclusion dependency position lists differ in length"
            )
        if not self.child_positions:
            raise QueryError("inclusion dependency needs at least one position")
        if any(p >= self.parent_arity for p in self.parent_positions):
            raise QueryError(
                "parent position exceeds parent arity in inclusion dependency"
            )

    @classmethod
    def from_ric(
        cls,
        ric: ReferentialConstraint,
        schema: RelationalSchema,
        predicate_prefix: str = "",
    ) -> "InclusionDependency":
        """Compile a schema RIC into a positional dependency."""
        child = schema.table(ric.child_table)
        parent = schema.table(ric.parent_table)
        return cls(
            child_predicate=predicate_prefix + child.name,
            child_positions=tuple(
                child.columns.index(c) for c in ric.child_columns
            ),
            parent_predicate=predicate_prefix + parent.name,
            parent_positions=tuple(
                parent.columns.index(c) for c in ric.parent_columns
            ),
            parent_arity=parent.arity,
        )

    def __str__(self) -> str:
        return (
            f"{self.child_predicate}{list(self.child_positions)} ⊆ "
            f"{self.parent_predicate}{list(self.parent_positions)}"
        )


def _satisfied(
    atoms: Iterable[Atom], dependency: InclusionDependency, key: tuple[Term, ...]
) -> bool:
    for atom in atoms:
        if atom.predicate != dependency.parent_predicate:
            continue
        if tuple(atom.terms[p] for p in dependency.parent_positions) == key:
            return True
    return False


def _missing_key(
    atoms: Iterable[Atom], atom: Atom, dependency: InclusionDependency
) -> tuple[Term, ...] | None:
    """The key of ``atom`` that ``dependency`` still needs a parent atom
    for, or ``None`` when it does not apply or is satisfied."""
    if atom.predicate != dependency.child_predicate:
        return None
    if atom.arity <= max(dependency.child_positions):
        raise QueryError(f"atom {atom} too short for dependency {dependency}")
    key = tuple(atom.terms[p] for p in dependency.child_positions)
    return None if _satisfied(atoms, dependency, key) else key


class ChaseEngine:
    """Chases atom sets with inclusion dependencies to a (bounded) fixpoint.

    ``max_depth`` bounds how many dependency applications may stack on one
    chain of generated atoms; depth 0 atoms are the user-provided seeds.
    The default depth comfortably covers real schemas (whose RIC chains
    are short) while guaranteeing termination on cyclic schemas. An atom
    left at the bound with a dependency still unsatisfied counts as one
    ``chase_depth_hits``: the result is a truncated chase.
    """

    def __init__(
        self,
        dependencies: Sequence[InclusionDependency],
        max_depth: int = 8,
    ) -> None:
        if max_depth < 1:
            raise QueryError("chase max_depth must be at least 1")
        self.dependencies = tuple(dependencies)
        self.max_depth = max_depth

    def chase(
        self,
        seed_atoms: Sequence[Atom],
        fresh: VariableFactory | None = None,
    ) -> tuple[Atom, ...]:
        """Return the chased atom set (seeds first, in generation order)."""
        fresh = fresh or VariableFactory()
        atoms: list[Atom] = list(seed_atoms)
        depth: dict[Atom, int] = {atom: 0 for atom in atoms}
        queue: list[Atom] = list(atoms)
        while queue:
            atom = queue.pop(0)
            if depth[atom] >= self.max_depth:
                if any(
                    _missing_key(atoms, atom, dependency) is not None
                    for dependency in self.dependencies
                ):
                    perf_counters.record("chase_depth_hits")
                continue
            for dependency in self.dependencies:
                key = _missing_key(atoms, atom, dependency)
                if key is None:
                    continue
                terms: list[Term] = [
                    fresh() for _ in range(dependency.parent_arity)
                ]
                for position, term in zip(dependency.parent_positions, key):
                    terms[position] = term
                new_atom = Atom(dependency.parent_predicate, terms)
                atoms.append(new_atom)
                depth[new_atom] = depth[atom] + 1
                queue.append(new_atom)
        return tuple(atoms)


def table_seed_atom(
    schema: RelationalSchema,
    table_name: str,
    predicate_prefix: str = "",
    variable_prefix: str | None = None,
) -> Atom:
    """The canonical seed atom of a table: one variable per column.

    Variables are named after the columns (``x_<table>_<column>``), which
    keeps chase output and logical relations readable.
    """
    table = schema.table(table_name)
    prefix = variable_prefix if variable_prefix is not None else f"x_{table_name}"
    return Atom(
        predicate_prefix + table.name,
        [Variable(f"{prefix}_{column}") for column in table.columns],
    )
