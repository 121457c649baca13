"""Inter-schema correspondences and their lifting to CM class nodes.

A correspondence is the simplest matcher output: a pair of column names,
``source_table.column ↔ target_table.column``, signifying that source data
from the former contributes to the latter (Section 1). Lifting a
correspondence through the table semantics marks the class nodes carrying
the corresponding attributes in both CM graphs (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.exceptions import CorrespondenceError
from repro.relational.schema import Column, RelationalSchema
from repro.semantics.lav import SchemaSemantics


@dataclass(frozen=True, order=True)
class Correspondence:
    """``source ↔ target`` between one source and one target column."""

    source: Column
    target: Column

    @classmethod
    def parse(cls, text: str) -> "Correspondence":
        """Parse ``"person.pname <-> hasBookSoldAt.aname"``.

        Both ``<->`` and the paper's ``↔`` separate the two sides.
        """
        for separator in ("<->", "↔"):
            if separator in text:
                left, right = (part.strip() for part in text.split(separator, 1))
                return cls(Column.parse(left), Column.parse(right))
        raise CorrespondenceError(
            f"correspondence text needs '<->' or '↔': {text!r}"
        )

    def __str__(self) -> str:
        return f"{self.source} ↔ {self.target}"


@dataclass(frozen=True)
class LiftedCorrespondence:
    """A correspondence lifted to class nodes in the two CM graphs."""

    correspondence: Correspondence
    source_class: str
    target_class: str
    source_attribute: str
    target_attribute: str

    def __str__(self) -> str:
        return (
            f"{self.correspondence} [{self.source_class}.{self.source_attribute}"
            f" ↔ {self.target_class}.{self.target_attribute}]"
        )


class CorrespondenceSet:
    """An ordered, duplicate-free collection of correspondences."""

    def __init__(self, correspondences: Iterable[Correspondence] = ()) -> None:
        self._items: list[Correspondence] = []
        seen: set[Correspondence] = set()
        for correspondence in correspondences:
            if correspondence not in seen:
                seen.add(correspondence)
                self._items.append(correspondence)

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "CorrespondenceSet":
        return cls(Correspondence.parse(text) for text in texts)

    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __getitem__(self, index: int) -> Correspondence:
        return self._items[index]

    def source_columns(self) -> tuple[Column, ...]:
        return tuple(c.source for c in self._items)

    def source_tables(self) -> tuple[str, ...]:
        result: dict[str, None] = {}
        for correspondence in self._items:
            result.setdefault(correspondence.source.table)
        return tuple(result)

    def target_tables(self) -> tuple[str, ...]:
        result: dict[str, None] = {}
        for correspondence in self._items:
            result.setdefault(correspondence.target.table)
        return tuple(result)

    def validate(
        self,
        source_schema: RelationalSchema,
        target_schema: RelationalSchema,
    ) -> None:
        """Raise :class:`CorrespondenceError` on dangling column references."""
        for correspondence in self._items:
            if not source_schema.has_column(correspondence.source):
                raise CorrespondenceError(
                    f"{correspondence}: source column not in schema "
                    f"{source_schema.name!r}"
                )
            if not target_schema.has_column(correspondence.target):
                raise CorrespondenceError(
                    f"{correspondence}: target column not in schema "
                    f"{target_schema.name!r}"
                )

    def lift(
        self,
        source_semantics: SchemaSemantics,
        target_semantics: SchemaSemantics,
    ) -> tuple[LiftedCorrespondence, ...]:
        """Lift every correspondence to class nodes via the table semantics."""
        lifted = []
        for correspondence in self._items:
            lifted.append(
                LiftedCorrespondence(
                    correspondence,
                    source_class=source_semantics.column_class(
                        correspondence.source
                    ),
                    target_class=target_semantics.column_class(
                        correspondence.target
                    ),
                    source_attribute=source_semantics.column_attribute(
                        correspondence.source
                    ),
                    target_attribute=target_semantics.column_attribute(
                        correspondence.target
                    ),
                )
            )
        return tuple(lifted)

    def restrict(
        self, subset: Iterable[Correspondence]
    ) -> "CorrespondenceSet":
        """The sub-collection containing only ``subset``, original order."""
        wanted = set(subset)
        return CorrespondenceSet(c for c in self._items if c in wanted)

    def __str__(self) -> str:
        return "{" + ", ".join(str(c) for c in self._items) + "}"

    def __repr__(self) -> str:
        return f"CorrespondenceSet({len(self._items)} correspondences)"
