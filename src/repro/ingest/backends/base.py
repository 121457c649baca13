"""The catalog-backend protocol: every dialect assumption in one place.

A :class:`CatalogBackend` answers the questions the dialect-agnostic
introspection core (:mod:`repro.ingest.introspect`) asks about one
database catalog — which tables exist, their columns and keys, their
foreign keys, a bounded row sample, a per-table content fingerprint,
and how a declared column type maps into the shared *type category*
lattice the matcher's penalty uses. Everything else (identifier
sanitization, diagnostics, pattern recognition, semantics recovery,
correspondence seeding) lives above the protocol and runs identically
over every backend.

Two backends ship with the library:

* :class:`repro.ingest.backends.sqlite.SQLiteBackend` — live SQLite
  databases read through ``sqlite_master`` and the PRAGMA catalogs;
* :class:`repro.ingest.backends.pgdump.DumpBackend` — Postgres
  ``pg_dump`` / MySQL ``mysqldump`` SQL text *parsed* (never executed)
  into the same structures.

Backends report table and column names exactly as the catalog spells
them (the "original" names); the core sanitizes them into library-legal
identifiers and keeps the original ↔ sanitized maps.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.discovery.fingerprint import content_hash
from repro.validation import Diagnostic

#: The shared type-category vocabulary. Each backend maps its dialect's
#: declared types into these categories; the correspondence matcher
#: penalizes pairs whose categories differ (a soft signal, never a
#: veto). SQLite uses its five affinity classes; richer dialects also
#: use ``boolean`` and ``temporal``.
TYPE_CATEGORIES = (
    "integer",
    "real",
    "numeric",
    "text",
    "blob",
    "boolean",
    "temporal",
)


@dataclass(frozen=True)
class ColumnDef:
    """One column as the catalog declares it.

    ``pk_ordinal`` is the column's 1-based position inside the primary
    key, or ``0`` when the column is not part of it.
    """

    name: str
    declared_type: str = ""
    pk_ordinal: int = 0


@dataclass(frozen=True)
class ForeignKeyDef:
    """One (possibly composite) foreign-key constraint.

    ``column_pairs`` lists ``(child column, parent column)`` in
    constraint ``seq`` order; a parent column of ``None`` means the
    constraint references the parent table's implicit primary key.
    """

    parent_table: str
    column_pairs: tuple[tuple[str, str | None], ...]


class CatalogBackend(abc.ABC):
    """What one database dialect must answer about its catalog."""

    #: Stable backend identifier (``"sqlite"``, ``"pgdump"``) — recorded
    #: on :class:`~repro.ingest.introspect.IntrospectionResult` and used
    #: by the CLI/wire ``backend`` selectors.
    name: str = "abstract"

    @abc.abstractmethod
    def list_tables(self) -> tuple[str, ...]:
        """User tables in catalog order (internals excluded)."""

    @abc.abstractmethod
    def columns(self, table: str) -> tuple[ColumnDef, ...]:
        """Columns of ``table`` in declaration order."""

    def primary_keys(self, table: str) -> tuple[str, ...]:
        """Primary-key columns in key ordinal order (may be empty)."""
        keyed = [
            (column.pk_ordinal, column.name)
            for column in self.columns(table)
            if column.pk_ordinal
        ]
        return tuple(name for _, name in sorted(keyed))

    @abc.abstractmethod
    def foreign_keys(self, table: str) -> tuple[ForeignKeyDef, ...]:
        """Foreign keys of ``table`` in declaration order."""

    def unique_indexes(self, table: str) -> tuple[tuple[str, ...], ...]:
        """Column tuples of unique non-primary-key indexes."""
        return ()

    @abc.abstractmethod
    def sample_rows(
        self, table: str, columns: tuple[str, ...], limit: int
    ) -> tuple[tuple, ...]:
        """Up to ``limit`` rows of ``columns``, deterministically ordered.

        ``table`` and ``columns`` use the catalog's original names.
        Repeated sampling of the same catalog must return the same rows
        in the same order (the SQLite backend sorts by the selected
        columns; the dump backend sorts the parsed rows equivalently).
        """

    @abc.abstractmethod
    def type_category(self, declared_type: str) -> str:
        """Map a declared column type into :data:`TYPE_CATEGORIES`."""

    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """Backend-level findings — e.g. dump statements the parser had
        to skip. The core folds these into the introspection diagnostics.
        """
        return ()

    # ------------------------------------------------------------------
    # Catalog fingerprints (shared across backends)
    # ------------------------------------------------------------------
    def catalog_fingerprint(self, table: str | None = None) -> str:
        """A content fingerprint of one table (or the whole catalog).

        The fingerprint covers what the ingestion pipeline can *act on*:
        column names with their type categories, the primary key, the
        foreign keys, and the unique indexes. It is canonicalized so it
        is stable under table and column reordering and under declared-
        type respellings within the same category (``INTEGER`` vs
        ``int``), and changes exactly when the catalog semantically
        changes — the property :func:`reingest` relies on to re-recover
        only drifted tables.
        """
        if table is None:
            per_table = sorted(
                (name, self.catalog_fingerprint(name))
                for name in self.list_tables()
            )
            return content_hash("catalog/1", tuple(per_table))
        columns = tuple(
            sorted(
                (column.name, self.type_category(column.declared_type))
                for column in self.columns(table)
            )
        )
        foreign_keys = tuple(
            sorted(
                (fk.parent_table, fk.column_pairs)
                for fk in self.foreign_keys(table)
            )
        )
        uniques = tuple(
            sorted(tuple(sorted(index)) for index in self.unique_indexes(table))
        )
        return content_hash(
            "table/1",
            table,
            columns,
            self.primary_keys(table),
            foreign_keys,
            uniques,
        )
