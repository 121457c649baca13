"""Catalog backends: dialect-specific readers behind one protocol.

The ingestion core asks a :class:`CatalogBackend` for tables, columns,
keys, samples, and type categories; each module here answers for one
dialect. :func:`backend_for` resolves the CLI/wire ``backend`` selector
(``sqlite`` / ``pgdump`` / ``auto``) against an input.
"""

from __future__ import annotations

import os
import sqlite3

from repro import _lazy_package
from repro.exceptions import IngestError

#: Backend selectors accepted by the CLI, wire, and ``ingest_pair``.
BACKEND_CHOICES = ("sqlite", "pgdump", "auto")


def _is_sqlite_file(path: str) -> bool:
    from repro.ingest.backends.pgdump import SQLITE_MAGIC

    try:
        with open(path, "rb") as handle:
            return handle.read(16) == SQLITE_MAGIC.encode("latin-1")
    except OSError:
        return False


def _is_path(database: str) -> bool:
    return "\n" not in database and os.path.exists(database)


def detect_backend(database: object) -> str:
    """Pick ``sqlite`` or ``pgdump`` for an input the user called auto on.

    Open connections and SQLite database files (recognized by the
    16-byte magic header) are ``sqlite``; any other existing file is a
    SQL dump, read by the ``pgdump`` parser. Non-path text is ``pgdump``
    when it carries dump-dialect markers (``COPY ... FROM stdin``,
    ``ENGINE=``, backticks, ``ALTER TABLE ONLY`` …) and ``sqlite``
    otherwise — plain portable SQL executes fine in memory under the
    SQLite authorizer.
    """
    from repro.ingest.backends.pgdump import looks_like_dump

    if isinstance(database, sqlite3.Connection):
        return "sqlite"
    if isinstance(database, str):
        if _is_path(database):
            return "sqlite" if _is_sqlite_file(database) else "pgdump"
        return "pgdump" if looks_like_dump(database) else "sqlite"
    return "sqlite"


def backend_for(
    database: object, backend: str = "sqlite"
) -> tuple[CatalogBackend, object]:
    """Resolve ``(backend instance, connection-to-close-or-None)``.

    ``database`` is an open :class:`sqlite3.Connection`, a SQLite file
    path, a dump file path, or dump text. The second element is the
    connection the caller must eventually close when one was opened
    here, else ``None``.
    """
    from repro.ingest.backends.pgdump import DumpBackend
    from repro.ingest.backends.sqlite import (
        SQLiteBackend,
        connect_memory_from_sql,
        open_database,
    )

    if backend == "auto":
        backend = detect_backend(database)
    if backend == "sqlite":
        if isinstance(database, sqlite3.Connection):
            return SQLiteBackend(database), None
        if (
            isinstance(database, str)
            and not _is_path(database)
            and ("\n" in database or ";" in database)
        ):
            # SQL text, not a path: execute in memory under the
            # ATTACH-denying authorizer.
            connection = connect_memory_from_sql(database)
            return SQLiteBackend(connection), connection
        connection, owned = open_database(database)
        return SQLiteBackend(connection), (connection if owned else None)
    if backend == "pgdump":
        if isinstance(database, sqlite3.Connection):
            raise IngestError(
                "the pgdump backend parses SQL dump text; it cannot "
                "read an open SQLite connection"
            )
        if _is_path(database) or (
            "\n" not in database and ";" not in database
        ):
            # An existing file, or something path-shaped (a single line
            # that could not be SQL): read it as a file so a typo'd
            # path surfaces as a structured dump.unreadable error
            # instead of being parsed as (empty) dump text.
            return DumpBackend.from_path(database), None
        return DumpBackend.from_text(database), None
    raise IngestError(
        f"unknown backend {backend!r}; choose from "
        f"{', '.join(BACKEND_CHOICES)}"
    )


__all__ = [
    "BACKEND_CHOICES",
    "backend_for",
    "detect_backend",
    *_lazy_package(
        __name__,
        {
            "repro.ingest.backends.base": (
                "TYPE_CATEGORIES",
                "CatalogBackend",
                "ColumnDef",
                "ForeignKeyDef",
            ),
            "repro.ingest.backends.pgdump": (
                "SQLITE_MAGIC",
                "DumpBackend",
                "dump_type_category",
                "looks_like_dump",
            ),
            "repro.ingest.backends.sqlite": (
                "SQLiteBackend",
                "connect_memory_from_sql",
                "open_database",
                "type_affinity",
            ),
        },
    ),
]
