"""A small relational algebra with a set-semantics evaluator.

The mapping expressions the library discovers are conjunctive queries; this
module gives them an executable algebraic form (and a readable rendering).
Every expression node evaluates against an :class:`~repro.relational.Instance`
to a :class:`ResultSet` — an ordered column list plus a set of value tuples.
Natural join is the workhorse: it joins on equal column *names*, which is the
convention used by the queries this library generates (shared variables are
rendered as shared column names, with :class:`Rename` resolving clashes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.exceptions import QueryError
from repro.relational.instance import Instance, _row_sort_key


@dataclass(frozen=True)
class ResultSet:
    """An evaluated relation: column names plus rows aligned to them."""

    columns: tuple[str, ...]
    rows: frozenset[tuple]

    def sorted_rows(self) -> tuple[tuple, ...]:
        """Rows in a deterministic order (for display and tests)."""
        return tuple(sorted(self.rows, key=_row_sort_key))

    def project(self, columns: Sequence[str]) -> "ResultSet":
        """Project onto ``columns`` (set semantics)."""
        try:
            positions = [self.columns.index(c) for c in columns]
        except ValueError as exc:
            raise QueryError(
                f"cannot project {tuple(columns)} from {self.columns}"
            ) from exc
        rows = frozenset(tuple(row[i] for i in positions) for row in self.rows)
        return ResultSet(tuple(columns), rows)

    def __len__(self) -> int:
        return len(self.rows)


class AlgebraExpression:
    """Base class for relational algebra expression trees."""

    def output_columns(self, instance: Instance) -> tuple[str, ...]:
        """Column names this expression produces over ``instance``'s schema."""
        raise NotImplementedError

    def evaluate(self, instance: Instance) -> ResultSet:
        """Evaluate to a :class:`ResultSet` under set semantics."""
        raise NotImplementedError

    def render(self) -> str:
        """Linear textual rendering (⋈, σ, π, ∪, ⟕, ⟗)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()

    # Convenience combinators -------------------------------------------------
    def join(self, other: "AlgebraExpression") -> "NaturalJoin":
        return NaturalJoin(self, other)

    def where(self, column: str, value: Hashable) -> "Selection":
        return Selection(self, column, value)


@dataclass(frozen=True)
class BaseRelation(AlgebraExpression):
    """A table scan. Column names are the table's own (unqualified)."""

    table_name: str

    def output_columns(self, instance: Instance) -> tuple[str, ...]:
        return instance.schema.table(self.table_name).columns

    def evaluate(self, instance: Instance) -> ResultSet:
        table = instance.schema.table(self.table_name)
        return ResultSet(table.columns, frozenset(instance.rows(self.table_name)))

    def render(self) -> str:
        return self.table_name


@dataclass(frozen=True)
class Rename(AlgebraExpression):
    """Rename columns: ``mapping`` sends old names to new names."""

    child: AlgebraExpression
    mapping: tuple[tuple[str, str], ...]

    def __init__(self, child: AlgebraExpression, mapping: Mapping[str, str]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "mapping", tuple(sorted(mapping.items())))

    def _map(self) -> dict[str, str]:
        return dict(self.mapping)

    def output_columns(self, instance: Instance) -> tuple[str, ...]:
        mapping = self._map()
        child_cols = self.child.output_columns(instance)
        unknown = set(mapping) - set(child_cols)
        if unknown:
            raise QueryError(f"rename of unknown columns {sorted(unknown)}")
        renamed = tuple(mapping.get(c, c) for c in child_cols)
        if len(set(renamed)) != len(renamed):
            raise QueryError(f"rename produces duplicate columns {renamed}")
        return renamed

    def evaluate(self, instance: Instance) -> ResultSet:
        result = self.child.evaluate(instance)
        return ResultSet(self.output_columns(instance), result.rows)

    def render(self) -> str:
        parts = ", ".join(f"{old}→{new}" for old, new in self.mapping)
        return f"ρ[{parts}]({self.child.render()})"


@dataclass(frozen=True)
class Selection(AlgebraExpression):
    """Select rows where ``column`` equals a constant ``value``."""

    child: AlgebraExpression
    column: str
    value: Hashable

    def output_columns(self, instance: Instance) -> tuple[str, ...]:
        return self.child.output_columns(instance)

    def evaluate(self, instance: Instance) -> ResultSet:
        result = self.child.evaluate(instance)
        if self.column not in result.columns:
            raise QueryError(
                f"selection on unknown column {self.column!r}; "
                f"have {result.columns}"
            )
        pos = result.columns.index(self.column)
        rows = frozenset(r for r in result.rows if r[pos] == self.value)
        return ResultSet(result.columns, rows)

    def render(self) -> str:
        return f"σ[{self.column}={self.value!r}]({self.child.render()})"


@dataclass(frozen=True)
class Projection(AlgebraExpression):
    """Project onto the given columns, in order."""

    child: AlgebraExpression
    columns: tuple[str, ...]

    def __init__(self, child: AlgebraExpression, columns: Sequence[str]) -> None:
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "columns", tuple(columns))

    def output_columns(self, instance: Instance) -> tuple[str, ...]:
        return self.columns

    def evaluate(self, instance: Instance) -> ResultSet:
        return self.child.evaluate(instance).project(self.columns)

    def render(self) -> str:
        return f"π[{', '.join(self.columns)}]({self.child.render()})"


def _join_rows(
    left: ResultSet,
    right: ResultSet,
    pairs: Sequence[tuple[int, int]],
) -> tuple[tuple[str, ...], set[tuple]]:
    """Hash-join ``left`` and ``right`` on the column-index ``pairs``:
    the output columns and the joined rows."""
    right_keep = [
        i for i in range(len(right.columns)) if i not in {rp for _, rp in pairs}
    ]
    out_columns = left.columns + tuple(right.columns[i] for i in right_keep)
    index: dict[tuple, list[tuple]] = {}
    for row in right.rows:
        key = tuple(row[rp] for _, rp in pairs)
        index.setdefault(key, []).append(row)
    joined: set[tuple] = set()
    for row in left.rows:
        key = tuple(row[lp] for lp, _ in pairs)
        for other in index.get(key, ()):
            joined.add(row + tuple(other[i] for i in right_keep))
    return out_columns, joined


def _shared_pairs(left: ResultSet, right: ResultSet) -> list[tuple[int, int]]:
    shared = [c for c in left.columns if c in right.columns]
    return [(left.columns.index(c), right.columns.index(c)) for c in shared]


@dataclass(frozen=True)
class NaturalJoin(AlgebraExpression):
    """Natural join on equal column names (cross product if none shared)."""

    left: AlgebraExpression
    right: AlgebraExpression

    def output_columns(self, instance: Instance) -> tuple[str, ...]:
        left_cols = self.left.output_columns(instance)
        right_cols = self.right.output_columns(instance)
        return left_cols + tuple(c for c in right_cols if c not in left_cols)

    def evaluate(self, instance: Instance) -> ResultSet:
        left = self.left.evaluate(instance)
        right = self.right.evaluate(instance)
        pairs = _shared_pairs(left, right)
        out_columns, joined = _join_rows(left, right, pairs)
        return ResultSet(out_columns, frozenset(joined))

    def render(self) -> str:
        return f"({self.left.render()} ⋈ {self.right.render()})"
