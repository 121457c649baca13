"""Referential integrity constraints (RICs).

A RIC states that the combination of values in the *child* columns of the
child table must appear among the *parent* columns of the parent table —
the general form of a foreign key. In the paper these are the dashed
arrows of Figure 1, written textually as ``writes.pname ⊆ person.pname``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SchemaError


@dataclass(frozen=True, order=True, slots=True)
class ReferentialConstraint:
    """An inclusion dependency ``child(cols) ⊆ parent(cols)``.

    Parameters
    ----------
    child_table, child_columns:
        The referencing side.
    parent_table, parent_columns:
        The referenced side; column lists must have equal length and
        positions pair up.
    """

    child_table: str
    child_columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]

    def __init__(
        self,
        child_table: str,
        child_columns,
        parent_table: str,
        parent_columns,
    ) -> None:
        child_cols = tuple(child_columns)
        parent_cols = tuple(parent_columns)
        if not child_cols:
            raise SchemaError("a RIC must reference at least one column")
        if len(child_cols) != len(parent_cols):
            raise SchemaError(
                "RIC column lists differ in length: "
                f"{child_cols} vs {parent_cols}"
            )
        if len(set(child_cols)) != len(child_cols):
            raise SchemaError(f"RIC child columns repeat: {child_cols}")
        if len(set(parent_cols)) != len(parent_cols):
            raise SchemaError(f"RIC parent columns repeat: {parent_cols}")
        object.__setattr__(self, "child_table", child_table)
        object.__setattr__(self, "child_columns", child_cols)
        object.__setattr__(self, "parent_table", parent_table)
        object.__setattr__(self, "parent_columns", parent_cols)

    @classmethod
    def parse(cls, text: str) -> "ReferentialConstraint":
        """Parse ``"child.c1,child.c2 -> parent.p1,parent.p2"``.

        Single-column shorthand works too:

        >>> ReferentialConstraint.parse("writes.pname -> person.pname")
        ReferentialConstraint(child_table='writes', child_columns=('pname',), \
parent_table='person', parent_columns=('pname',))
        """
        if "->" not in text:
            raise SchemaError(f"RIC text must contain '->': {text!r}")
        left, right = (part.strip() for part in text.split("->", 1))
        child_table, child_cols = cls._parse_side(left)
        parent_table, parent_cols = cls._parse_side(right)
        return cls(child_table, child_cols, parent_table, parent_cols)

    @staticmethod
    def _parse_side(side: str) -> tuple[str, tuple[str, ...]]:
        refs = [item.strip() for item in side.split(",") if item.strip()]
        if not refs:
            raise SchemaError(f"empty RIC side: {side!r}")
        tables = set()
        cols = []
        for ref in refs:
            parts = ref.split(".")
            if len(parts) != 2:
                raise SchemaError(f"expected 'table.column' in RIC, got {ref!r}")
            tables.add(parts[0])
            cols.append(parts[1])
        if len(tables) != 1:
            raise SchemaError(
                f"all columns on one RIC side must share a table: {side!r}"
            )
        return tables.pop(), tuple(cols)

    @property
    def column_pairs(self) -> tuple[tuple[str, str], ...]:
        """Positionally paired (child_column, parent_column) names."""
        return tuple(zip(self.child_columns, self.parent_columns))

    def __str__(self) -> str:
        left = ",".join(f"{self.child_table}.{c}" for c in self.child_columns)
        right = ",".join(f"{self.parent_table}.{c}" for c in self.parent_columns)
        return f"{left} -> {right}"
