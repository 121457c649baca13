"""Relational schemas: columns, tables, and whole-schema containers.

The relational model used throughout the paper is plain SQL-style: a schema
is a set of named tables, each table has named columns and a primary key,
and tables are linked by referential integrity constraints
(:mod:`repro.relational.constraints`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import SchemaError
from repro.relational.constraints import ReferentialConstraint


def _check_identifier(name: str, kind: str) -> None:
    if not name or not isinstance(name, str):
        raise SchemaError(f"{kind} name must be a non-empty string, got {name!r}")
    if any(ch.isspace() for ch in name):
        raise SchemaError(f"{kind} name {name!r} must not contain whitespace")
    if "." in name:
        raise SchemaError(f"{kind} name {name!r} must not contain '.'")


@dataclass(frozen=True, order=True, slots=True)
class Column:
    """A fully qualified column reference ``table.name``."""

    table: str
    name: str

    def __post_init__(self) -> None:
        _check_identifier(self.table, "table")
        _check_identifier(self.name, "column")

    def __str__(self) -> str:
        return f"{self.table}.{self.name}"

    @classmethod
    def parse(cls, qualified: str) -> "Column":
        """Parse ``"table.column"`` into a :class:`Column`.

        >>> Column.parse("person.pname")
        Column(table='person', name='pname')
        """
        parts = qualified.split(".")
        if len(parts) != 2:
            raise SchemaError(
                f"expected 'table.column', got {qualified!r}"
            )
        return cls(parts[0], parts[1])


@dataclass(frozen=True, slots=True)
class Table:
    """A relational table with named columns and a primary key.

    Parameters
    ----------
    name:
        Table name, unique within a schema.
    columns:
        Ordered column names.
    primary_key:
        Subset of ``columns`` forming the primary key. May be empty for
        tables whose key is unknown (the algorithms then treat every
        column as non-identifying).
    """

    name: str
    columns: tuple[str, ...]
    primary_key: tuple[str, ...] = ()

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        primary_key: Sequence[str] = (),
    ) -> None:
        _check_identifier(name, "table")
        cols = tuple(columns)
        if not cols:
            raise SchemaError(f"table {name!r} must have at least one column")
        for col in cols:
            _check_identifier(col, "column")
        if len(set(cols)) != len(cols):
            raise SchemaError(f"table {name!r} has duplicate columns: {cols}")
        pk = tuple(primary_key)
        missing = [c for c in pk if c not in cols]
        if missing:
            raise SchemaError(
                f"primary key of table {name!r} mentions unknown columns {missing}"
            )
        if len(set(pk)) != len(pk):
            raise SchemaError(f"primary key of table {name!r} repeats columns: {pk}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "primary_key", pk)

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def non_key_columns(self) -> tuple[str, ...]:
        """Columns not in the primary key, in declaration order."""
        return tuple(c for c in self.columns if c not in self.primary_key)

    def column(self, name: str) -> Column:
        """Return the qualified :class:`Column` for ``name``."""
        if name not in self.columns:
            raise SchemaError(f"table {self.name!r} has no column {name!r}")
        return Column(self.name, name)

    def qualified_columns(self) -> tuple[Column, ...]:
        """All columns of this table as qualified references."""
        return tuple(Column(self.name, c) for c in self.columns)

    def __str__(self) -> str:
        rendered = ", ".join(
            f"_{c}_" if c in self.primary_key else c for c in self.columns
        )
        return f"{self.name}({rendered})"


class RelationalSchema:
    """A named collection of tables plus referential integrity constraints.

    The schema validates, at construction and on every mutation, that
    constraints reference existing tables/columns with matching arities.

    >>> schema = RelationalSchema("src")
    >>> _ = schema.add_table(Table("person", ["pname"], ["pname"]))
    >>> _ = schema.add_table(Table("writes", ["pname", "bid"], ["pname", "bid"]))
    >>> _ = schema.add_ric(ReferentialConstraint.parse("writes.pname -> person.pname"))
    >>> sorted(schema.table_names())
    ['person', 'writes']
    """

    def __init__(
        self,
        name: str,
        tables: Iterable[Table] = (),
        rics: Iterable[ReferentialConstraint] = (),
    ) -> None:
        _check_identifier(name, "schema")
        self.name = name
        self._tables: dict[str, Table] = {}
        self._rics: list[ReferentialConstraint] = []
        for table in tables:
            self.add_table(table)
        for ric in rics:
            self.add_ric(ric)

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> Table:
        """Add ``table``; raises :class:`SchemaError` on duplicate names."""
        if table.name in self._tables:
            raise SchemaError(
                f"schema {self.name!r} already has a table named {table.name!r}"
            )
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no table named {name!r}"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> tuple[str, ...]:
        """Table names in insertion order."""
        return tuple(self._tables)

    @property
    def tables(self) -> Mapping[str, Table]:
        """Read-only view of the tables by name."""
        return dict(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def has_column(self, column: Column) -> bool:
        return (
            column.table in self._tables
            and column.name in self._tables[column.table].columns
        )

    def check_column(self, column: Column) -> Column:
        """Validate that ``column`` exists in this schema and return it."""
        if not self.has_column(column):
            raise SchemaError(
                f"schema {self.name!r} has no column {column}"
            )
        return column

    # ------------------------------------------------------------------
    # Referential integrity constraints
    # ------------------------------------------------------------------
    def add_ric(self, ric: ReferentialConstraint) -> ReferentialConstraint:
        """Add a RIC after validating it against the current tables."""
        self._validate_ric(ric)
        self._rics.append(ric)
        return ric

    def _validate_ric(self, ric: ReferentialConstraint) -> None:
        for table_name, cols in (
            (ric.child_table, ric.child_columns),
            (ric.parent_table, ric.parent_columns),
        ):
            table = self.table(table_name)
            for col in cols:
                if col not in table.columns:
                    raise SchemaError(
                        f"RIC {ric} references unknown column "
                        f"{table_name}.{col}"
                    )

    @property
    def rics(self) -> tuple[ReferentialConstraint, ...]:
        return tuple(self._rics)

    def rics_from(self, table_name: str) -> tuple[ReferentialConstraint, ...]:
        """RICs whose child (referencing) table is ``table_name``."""
        return tuple(r for r in self._rics if r.child_table == table_name)

    def rics_to(self, table_name: str) -> tuple[ReferentialConstraint, ...]:
        """RICs whose parent (referenced) table is ``table_name``."""
        return tuple(r for r in self._rics if r.parent_table == table_name)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable multi-line description of the schema."""
        lines = [f"schema {self.name}:"]
        for table in self:
            lines.append(f"  {table}")
        for ric in self._rics:
            lines.append(f"  RIC {ric}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RelationalSchema({self.name!r}, tables={len(self._tables)}, "
            f"rics={len(self._rics)})"
        )
