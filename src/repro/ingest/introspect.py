"""Database introspection: a catalog backend → :class:`RelationalSchema`.

This is the front half of the ingestion pipeline (``docs/ingestion.md``).
A :class:`~repro.ingest.backends.CatalogBackend` answers the dialect's
catalog questions — tables, columns, primary keys, foreign keys, unique
indexes — and the :class:`CatalogIntrospector` here assembles them,
identically for every backend, into the same
:class:`~repro.relational.schema.RelationalSchema` the rest of the
library consumes. Two backends ship: live SQLite databases
(:mod:`repro.ingest.backends.sqlite`) and parsed ``pg_dump`` /
``mysqldump`` SQL text (:mod:`repro.ingest.backends.pgdump`).

Everything the introspector *notices* but does not *decide* is surfaced
as a structured :class:`~repro.validation.Diagnostic`, never a guess
baked into the schema (the virt-graph ontology-discovery convention):
two foreign keys into the same table suggest an edge/relationship
table, an ``_id`` suffix on an unconstrained column suggests an
undeclared foreign key, a unique non-key index is a natural-key
candidate, a missing primary key is worth a warning. A finding's
``location`` is ``"table"`` or ``"table.column"``. Downstream consumers
(the CLI report, the ``POST /introspect`` response) render these for
human review.

Untrusted SQL (the service accepts schema dumps over the wire) is
either *parsed* without execution (the pgdump backend) or executed
through :func:`connect_memory_from_sql`, which pins the database in
memory and denies ``ATTACH`` via an authorizer so a dump cannot touch
the server's filesystem.
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, field
from typing import Mapping

from repro.ingest.backends import (
    CatalogBackend,
    SQLiteBackend,
    connect_memory_from_sql,
    open_database,
)
from repro.relational.constraints import ReferentialConstraint
from repro.relational.schema import RelationalSchema, Table
from repro.validation import ERROR, INFO, WARNING, Diagnostic

__all__ = [
    "CatalogIntrospector",
    "IntrospectionResult",
    "connect_memory_from_sql",
    "introspect_backend",
    "introspect_sqlite",
    "open_database",
]

_IDENTIFIER_FIX_RE = re.compile(r"[\s.]+")
_ID_SUFFIX_RE = re.compile(r"(.+?)_?id$", re.IGNORECASE)


@dataclass
class IntrospectionResult:
    """A database catalog read back as a schema plus structured findings."""

    schema: RelationalSchema
    diagnostics: tuple[Diagnostic, ...] = ()
    #: Declared column types, ``{table: {column: type text}}`` (may be "").
    column_types: dict[str, dict[str, str]] = field(default_factory=dict)
    #: Unique non-primary-key indexes: ``{table: ((col, ...), ...)}``.
    natural_keys: dict[str, tuple[tuple[str, ...], ...]] = field(
        default_factory=dict
    )
    #: Sanitized table name → the database's original table name.
    original_tables: dict[str, str] = field(default_factory=dict)
    #: Sanitized column → original column name, per sanitized table.
    original_columns: dict[str, dict[str, str]] = field(
        default_factory=dict
    )
    #: Which backend produced this result (``"sqlite"``, ``"pgdump"``).
    backend: str = "sqlite"
    #: Backend type categories, ``{table: {column: category}}`` — the
    #: dialect's declared types mapped into the shared lattice the
    #: correspondence matcher's type penalty compares.
    type_categories: dict[str, dict[str, str]] = field(
        default_factory=dict
    )
    #: Per-table catalog fingerprints (sanitized table name → hash);
    #: drives :mod:`repro.ingest.reingest` change detection.
    table_fingerprints: dict[str, str] = field(default_factory=dict)
    #: Fingerprint of the whole catalog (order-independent).
    catalog_fingerprint: str = ""

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == WARNING)

    def findings(self, code_prefix: str) -> tuple[Diagnostic, ...]:
        """Diagnostics whose code starts with ``code_prefix``."""
        return tuple(
            d for d in self.diagnostics if d.code.startswith(code_prefix)
        )

    def describe(self) -> str:
        """Human-readable report: the schema, then every finding."""
        lines = [self.schema.describe()]
        for diagnostic in self.diagnostics:
            lines.append(f"  {diagnostic}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The introspector
# ---------------------------------------------------------------------------
class CatalogIntrospector:
    """Reads one catalog backend into an :class:`IntrospectionResult`.

    Dialect-agnostic: every catalog question goes through the
    :class:`~repro.ingest.backends.CatalogBackend` protocol, so the
    sanitization, diagnostic, and pattern-recognition behavior is
    byte-identical across backends reading equivalent catalogs.
    """

    def __init__(
        self, backend: CatalogBackend, schema_name: str = "db"
    ) -> None:
        self.backend = backend
        self.schema_name = schema_name
        self.diagnostics: list[Diagnostic] = []
        #: original name → sanitized name, per table.
        self._renames: dict[str, dict[str, str]] = {}
        self._original_tables: dict[str, str] = {}
        self._original_columns: dict[str, dict[str, str]] = {}

    # -- diagnostics -----------------------------------------------------
    def _diag(
        self, severity: str, code: str, message: str, location: str = ""
    ) -> None:
        self.diagnostics.append(
            Diagnostic(severity, code, message, location)
        )

    # -- identifiers -----------------------------------------------------
    def _sanitize(self, name: str, kind: str, location: str) -> str | None:
        """A library-legal identifier for ``name``, or ``None``.

        Quoted catalog identifiers may contain whitespace and dots,
        which :class:`RelationalSchema` forbids; such names are
        rewritten with underscores and reported, never silently altered.
        """
        fixed = _IDENTIFIER_FIX_RE.sub("_", name.strip())
        if not fixed:
            self._diag(
                ERROR,
                "identifier.unusable",
                f"{kind} name {name!r} cannot be made a legal identifier",
                location,
            )
            return None
        if fixed != name:
            self._diag(
                WARNING,
                "identifier.renamed",
                f"{kind} {name!r} introspected as {fixed!r} "
                f"(whitespace/dots are not legal identifier characters)",
                location,
            )
        return fixed

    # -- entry point -----------------------------------------------------
    def introspect(self) -> IntrospectionResult:
        schema = RelationalSchema(self.schema_name)
        column_types: dict[str, dict[str, str]] = {}
        natural_keys: dict[str, tuple[tuple[str, ...], ...]] = {}
        self.diagnostics.extend(self.backend.diagnostics())
        table_names = list(self.backend.list_tables())
        if not table_names:
            self._diag(
                ERROR,
                "database.empty",
                "the database contains no user tables: nothing to "
                "introspect",
                self.schema_name,
            )
        for original in table_names:
            self._read_table(original, schema, column_types, natural_keys)
        for original in table_names:
            self._read_foreign_keys(original, schema)
        self._recognize_patterns(schema, column_types)
        type_categories = {
            table: {
                column: self.backend.type_category(declared)
                for column, declared in types.items()
            }
            for table, types in column_types.items()
        }
        table_fingerprints = {
            self._renames_key(original): self.backend.catalog_fingerprint(
                original
            )
            for original in table_names
            if self._renames_key(original) is not None
        }
        return IntrospectionResult(
            schema,
            tuple(self.diagnostics),
            column_types,
            natural_keys,
            dict(self._original_tables),
            dict(self._original_columns),
            self.backend.name,
            type_categories,
            table_fingerprints,
            self.backend.catalog_fingerprint(),
        )

    def _renames_key(self, original: str) -> str | None:
        """The sanitized name of an introspected table, else ``None``."""
        if original not in self._renames:
            return None
        return _IDENTIFIER_FIX_RE.sub("_", original.strip())

    # -- tables ----------------------------------------------------------
    def _read_table(
        self,
        original: str,
        schema: RelationalSchema,
        column_types: dict[str, dict[str, str]],
        natural_keys: dict[str, tuple[tuple[str, ...], ...]],
    ) -> None:
        table_name = self._sanitize(original, "table", original)
        if table_name is None or schema.has_table(table_name):
            if table_name is not None:
                self._diag(
                    ERROR,
                    "table.duplicate",
                    f"sanitized name {table_name!r} collides with an "
                    f"already-introspected table; {original!r} skipped",
                    original,
                )
            return
        renames: dict[str, str] = {}
        columns: list[str] = []
        types: dict[str, str] = {}
        pk_positions: list[tuple[int, str]] = []
        for column_def in self.backend.columns(original):
            column = column_def.name
            fixed = self._sanitize(
                column, "column", f"{original}.{column}"
            )
            if fixed is None or fixed in columns:
                if fixed is not None:
                    self._diag(
                        ERROR,
                        "column.duplicate",
                        f"sanitized column {fixed!r} collides inside "
                        f"{original!r}; column {column!r} dropped",
                        f"{original}.{column}",
                    )
                continue
            renames[column] = fixed
            columns.append(fixed)
            types[fixed] = column_def.declared_type
            if column_def.pk_ordinal:
                pk_positions.append((column_def.pk_ordinal, fixed))
        if not columns:
            self._diag(
                ERROR,
                "table.empty",
                f"table {original!r} has no usable columns; skipped",
                original,
            )
            return
        primary_key = [column for _, column in sorted(pk_positions)]
        if not primary_key:
            self._diag(
                WARNING,
                "table.no-primary-key",
                f"table {original!r} declares no primary key (a rowid "
                f"table); keys treated as unknown",
                original,
            )
        schema.add_table(Table(table_name, columns, primary_key))
        column_types[table_name] = types
        self._renames[original] = renames
        self._original_tables[table_name] = original
        self._original_columns[table_name] = {
            fixed: source for source, fixed in renames.items()
        }
        uniques = []
        for index_columns in self.backend.unique_indexes(original):
            mapped = tuple(
                renames.get(column, column) for column in index_columns
            )
            if all(column in columns for column in mapped):
                uniques.append(mapped)
                self._diag(
                    INFO,
                    "pattern.natural-key",
                    f"unique index on ({', '.join(mapped)}) is a "
                    f"natural-key candidate",
                    table_name,
                )
        if uniques:
            natural_keys[table_name] = tuple(uniques)

    # -- foreign keys ----------------------------------------------------
    def _read_foreign_keys(
        self, original: str, schema: RelationalSchema
    ) -> None:
        if original not in self._renames:
            return  # table was skipped
        table_name = _IDENTIFIER_FIX_RE.sub("_", original.strip())
        renames = self._renames[original]
        for foreign_key in self.backend.foreign_keys(original):
            parent_original = foreign_key.parent_table
            column_pairs = foreign_key.column_pairs
            parent_name = _IDENTIFIER_FIX_RE.sub(
                "_", parent_original.strip()
            )
            if not schema.has_table(parent_name):
                self._diag(
                    WARNING,
                    "constraint.dangling",
                    f"foreign key of {original!r} references missing "
                    f"table {parent_original!r}; constraint dropped",
                    original,
                )
                continue
            parent_table = schema.table(parent_name)
            parent_renames = self._renames.get(parent_original, {})
            child_columns = [
                renames.get(child, child) for child, _ in column_pairs
            ]
            if any(parent is None for _, parent in column_pairs):
                # References the parent's implicit PRIMARY KEY.
                if len(parent_table.primary_key) != len(column_pairs):
                    self._diag(
                        WARNING,
                        "constraint.unresolvable",
                        f"foreign key of {original!r} references the "
                        f"implicit key of {parent_original!r}, which has "
                        f"{len(parent_table.primary_key)} column(s) for "
                        f"{len(column_pairs)} referencing column(s); "
                        f"constraint dropped",
                        original,
                    )
                    continue
                parent_columns = list(parent_table.primary_key)
            else:
                parent_columns = [
                    parent_renames.get(parent, parent)
                    for _, parent in column_pairs
                ]
            missing = [
                column
                for column in parent_columns
                if column not in parent_table.columns
            ]
            if missing:
                self._diag(
                    WARNING,
                    "constraint.dangling",
                    f"foreign key of {original!r} references unknown "
                    f"column(s) {missing} of {parent_original!r}; "
                    f"constraint dropped",
                    original,
                )
                continue
            schema.add_ric(
                ReferentialConstraint(
                    table_name, child_columns, parent_name, parent_columns
                )
            )

    # -- pattern recognition --------------------------------------------
    def _recognize_patterns(
        self,
        schema: RelationalSchema,
        column_types: Mapping[str, Mapping[str, str]],
    ) -> None:
        table_by_norm = {
            _pattern_norm(name): name for name in schema.table_names()
        }
        for table in schema:
            rics = schema.rics_from(table.name)
            fk_columns = {
                column for ric in rics for column in ric.child_columns
            }
            parents = [ric.parent_table for ric in rics]
            for parent in sorted(
                {p for p in parents if parents.count(p) >= 2}
            ):
                kind = (
                    "a self-referential edge"
                    if parent == table.name
                    else "an edge/relationship"
                )
                self._diag(
                    INFO,
                    "pattern.edge-table",
                    f"{parents.count(parent)} foreign keys into "
                    f"{parent!r} suggest {kind} table",
                    table.name,
                )
            if len(parents) >= 2 and set(table.columns) == fk_columns:
                self._diag(
                    INFO,
                    "pattern.pure-join-table",
                    f"every column belongs to a foreign key "
                    f"({', '.join(sorted(set(parents)))}); the table "
                    f"carries no attributes of its own",
                    table.name,
                )
            for column in table.columns:
                if column in fk_columns or column in table.primary_key:
                    continue
                match = _ID_SUFFIX_RE.match(column)
                if match is None or not match.group(1):
                    continue
                stem = _pattern_norm(match.group(1))
                guess = table_by_norm.get(stem) or table_by_norm.get(
                    stem + "s"
                )
                hint = (
                    f"; {guess!r} looks like the referenced table"
                    if guess is not None and guess != table.name
                    else ""
                )
                self._diag(
                    INFO,
                    "pattern.fk-hint",
                    f"column {column!r} has an id suffix but no declared "
                    f"foreign key{hint}",
                    f"{table.name}.{column}",
                )
            for column in table.columns:
                if _pattern_norm(column) in ("deletedat", "isdeleted"):
                    self._diag(
                        INFO,
                        "pattern.soft-delete",
                        f"column {column!r} suggests soft-deleted rows; "
                        f"sampled data may include tombstones",
                        f"{table.name}.{column}",
                    )


def _pattern_norm(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", name.lower())


def introspect_backend(
    backend: CatalogBackend, schema_name: str = "db"
) -> IntrospectionResult:
    """Introspect any catalog backend into an :class:`IntrospectionResult`."""
    return CatalogIntrospector(backend, schema_name).introspect()


def introspect_sqlite(
    database: str | sqlite3.Connection, schema_name: str = "db"
) -> IntrospectionResult:
    """Introspect a SQLite database (path or open connection).

    >>> import sqlite3
    >>> conn = sqlite3.connect(":memory:")
    >>> _ = conn.executescript(
    ...     "CREATE TABLE person (pname TEXT PRIMARY KEY);"
    ...     "CREATE TABLE writes (pname TEXT, bid TEXT,"
    ...     " PRIMARY KEY (pname, bid),"
    ...     " FOREIGN KEY (pname) REFERENCES person (pname));"
    ... )
    >>> result = introspect_sqlite(conn, "src")
    >>> sorted(result.schema.table_names())
    ['person', 'writes']
    >>> [str(ric) for ric in result.schema.rics]
    ['writes.pname -> person.pname']
    """
    connection, owned = open_database(database)
    try:
        return introspect_backend(SQLiteBackend(connection), schema_name)
    finally:
        if owned:
            connection.close()
