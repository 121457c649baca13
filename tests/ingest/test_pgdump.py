"""Unit tests for the pg_dump/mysqldump catalog backend."""

import pytest

from repro.exceptions import IngestError
from repro.ingest import DumpBackend, detect_backend, introspect_backend
from repro.ingest.backends import dump_type_category, looks_like_dump


PG_DUMP = """\
--
-- PostgreSQL database dump
--

SET statement_timeout = 0;
SET client_encoding = 'UTF8';

CREATE TABLE public.person (
    pname character varying(80) NOT NULL,
    age integer,
    bio text
);

ALTER TABLE public.person OWNER TO admin;

CREATE TABLE public.book (
    bid integer NOT NULL,
    title text,
    author character varying(80)
);

COPY public.person (pname, age, bio) FROM stdin;
Alice\t34\tlikes \\t tabs
Bob\t\\N\t\\N
\\.

COPY public.book (bid, title, author) FROM stdin;
1\tDatabases\tAlice
2\tCompilers\tBob
\\.

ALTER TABLE ONLY public.person
    ADD CONSTRAINT person_pkey PRIMARY KEY (pname);

ALTER TABLE ONLY public.book
    ADD CONSTRAINT book_pkey PRIMARY KEY (bid);

ALTER TABLE ONLY public.book
    ADD CONSTRAINT book_author_fkey FOREIGN KEY (author)
    REFERENCES public.person (pname);

CREATE UNIQUE INDEX book_title_key ON public.book USING btree (title);
"""

MYSQL_DUMP = """\
-- MySQL dump 10.13

LOCK TABLES `person` WRITE;
CREATE TABLE `person` (
  `pname` varchar(80) NOT NULL,
  `age` int DEFAULT NULL,
  PRIMARY KEY (`pname`),
  UNIQUE KEY `person_age` (`age`),
  KEY `person_age_idx` (`age`)
) ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;

CREATE TABLE `book` (
  `bid` int NOT NULL AUTO_INCREMENT,
  `author` varchar(80) DEFAULT NULL,
  PRIMARY KEY (`bid`),
  CONSTRAINT `book_fk` FOREIGN KEY (`author`) REFERENCES `person` (`pname`)
) ENGINE=InnoDB;

INSERT INTO `person` VALUES ('Alice',34),('Bob',NULL);
INSERT INTO `book` (`bid`, `author`) VALUES (1,'Alice');
UNLOCK TABLES;
"""


class TestPostgresDialect:
    @pytest.fixture
    def backend(self):
        return DumpBackend.from_text(PG_DUMP)

    def test_tables_in_declaration_order(self, backend):
        assert backend.list_tables() == ("person", "book")

    def test_columns_and_declared_types(self, backend):
        names = [c.name for c in backend.columns("person")]
        assert names == ["pname", "age", "bio"]
        by_name = {c.name: c.declared_type for c in backend.columns("person")}
        assert "character varying" in by_name["pname"]
        assert by_name["age"] == "integer"

    def test_alter_table_primary_key(self, backend):
        assert backend.primary_keys("person") == ("pname",)
        assert backend.primary_keys("book") == ("bid",)

    def test_alter_table_foreign_key(self, backend):
        (fk,) = backend.foreign_keys("book")
        assert fk.parent_table == "person"
        assert fk.column_pairs == (("author", "pname"),)

    def test_unique_index(self, backend):
        assert backend.unique_indexes("book") == (("title",),)

    def test_copy_rows_with_escapes_and_nulls(self, backend):
        rows = backend.sample_rows("person", ("pname", "age", "bio"), 10)
        assert ("Alice", 34, "likes \t tabs") in rows
        assert ("Bob", None, None) in rows

    def test_sample_rows_projects_and_limits(self, backend):
        rows = list(backend.sample_rows("book", ("title",), 1))
        assert rows in ([("Compilers",)], [("Databases",)])

    def test_no_diagnostics_on_clean_dump(self, backend):
        codes = {d.code for d in backend.diagnostics()}
        assert "dump.statement-unparsed" not in codes


class TestMySQLDialect:
    @pytest.fixture
    def backend(self):
        return DumpBackend.from_text(MYSQL_DUMP)

    def test_backtick_identifiers(self, backend):
        assert backend.list_tables() == ("person", "book")
        assert [c.name for c in backend.columns("person")] == [
            "pname",
            "age",
        ]

    def test_inline_primary_and_unique_key(self, backend):
        assert backend.primary_keys("person") == ("pname",)
        assert backend.unique_indexes("person") == (("age",),)

    def test_inline_constraint_foreign_key(self, backend):
        (fk,) = backend.foreign_keys("book")
        assert fk.parent_table == "person"
        assert fk.column_pairs == (("author", "pname"),)

    def test_insert_values_multi_tuple(self, backend):
        rows = backend.sample_rows("person", ("pname", "age"), 10)
        assert ("Alice", 34) in rows
        assert ("Bob", None) in rows

    def test_insert_with_named_columns(self, backend):
        rows = list(backend.sample_rows("book", ("bid", "author"), 10))
        assert rows == [(1, "Alice")]


class TestTypeCategories:
    @pytest.mark.parametrize(
        "declared, category",
        [
            ("integer", "integer"),
            ("bigserial", "integer"),
            ("double precision", "real"),
            ("numeric(10,2)", "numeric"),
            ("money", "numeric"),
            ("boolean", "boolean"),
            ("tinyint(1)", "integer"),
            ("timestamp with time zone", "temporal"),
            ("interval", "temporal"),
            ("date", "temporal"),
            ("bytea", "blob"),
            ("varbinary(16)", "blob"),
            ("character varying(80)", "text"),
            ("uuid", "text"),
        ],
    )
    def test_category_rules(self, declared, category):
        assert dump_type_category(declared) == category


class TestDiagnosticsAndErrors:
    def test_empty_text_is_structured_error(self):
        with pytest.raises(IngestError, match="dump.empty"):
            DumpBackend.from_text("   \n  ")

    def test_sqlite_binary_refused(self):
        with pytest.raises(IngestError, match="dump.binary"):
            DumpBackend.from_text("SQLite format 3\x00garbage")

    def test_missing_file_is_structured_error(self, tmp_path):
        with pytest.raises(IngestError, match="dump.unreadable"):
            DumpBackend.from_path(str(tmp_path / "ghost.sql"))

    def test_binary_file_is_structured_error(self, tmp_path):
        path = tmp_path / "not-utf8.sql"
        path.write_bytes(b"\xff\xfe\x00\x01 CREATE TABLE t (a);")
        with pytest.raises(IngestError, match="dump.unreadable"):
            DumpBackend.from_path(str(path))

    def test_unparsed_statement_surfaces(self):
        backend = DumpBackend.from_text(
            "CREATE TABLE t (a integer);\n"
            "GRANT SELECT ON t TO public;\n"
            "FROBNICATE THE WHATSIT;\n"
        )
        codes = {d.code for d in backend.diagnostics()}
        assert "dump.statement-skipped" in codes

    def test_data_for_unknown_table_reported(self):
        backend = DumpBackend.from_text(
            "CREATE TABLE t (a integer);\n"
            "INSERT INTO ghost VALUES (1);\n"
        )
        codes = {d.code for d in backend.diagnostics()}
        assert "dump.data-unknown-table" in codes

    def test_check_constraint_ignored_with_diagnostic(self):
        backend = DumpBackend.from_text(
            "CREATE TABLE t (a integer, CHECK (a > 0));"
        )
        assert [c.name for c in backend.columns("t")] == ["a"]
        codes = {d.code for d in backend.diagnostics()}
        assert "dump.constraint-ignored" in codes


class TestDetection:
    def test_pg_markers_detected(self):
        assert looks_like_dump(PG_DUMP)
        assert detect_backend(PG_DUMP) == "pgdump"

    def test_mysql_markers_detected(self):
        assert looks_like_dump(MYSQL_DUMP)
        assert detect_backend(MYSQL_DUMP) == "pgdump"

    def test_plain_sql_stays_sqlite(self):
        plain = "CREATE TABLE t (a TEXT PRIMARY KEY);\n"
        assert not looks_like_dump(plain)
        assert detect_backend(plain) == "sqlite"

    def test_sqlite_file_detected_by_magic(self, tmp_path):
        import sqlite3

        path = tmp_path / "live.db"
        conn = sqlite3.connect(str(path))
        conn.execute("CREATE TABLE t (a TEXT)")
        conn.commit()
        conn.close()
        assert detect_backend(str(path)) == "sqlite"

    def test_dump_file_detected_as_pgdump(self, tmp_path):
        path = tmp_path / "dump.sql"
        path.write_text(PG_DUMP, encoding="utf-8")
        assert detect_backend(str(path)) == "pgdump"


class TestIntrospectionParity:
    def test_dump_introspects_like_sqlite(self):
        from repro.ingest import connect_memory_from_sql, introspect_sqlite
        from repro.ingest.backends import SQLiteBackend

        sqlite_sql = (
            "CREATE TABLE person (pname TEXT PRIMARY KEY, age INTEGER);"
            "CREATE TABLE book (bid INTEGER PRIMARY KEY, title TEXT,"
            "   author TEXT REFERENCES person (pname));"
        )
        connection = connect_memory_from_sql(sqlite_sql)
        try:
            via_sqlite = introspect_sqlite(connection)
        finally:
            connection.close()
        via_dump = introspect_backend(DumpBackend.from_text(PG_DUMP))
        assert (
            via_dump.schema.table_names()
            == via_sqlite.schema.table_names()
            == ("person", "book")
        )
        assert [str(r) for r in via_dump.schema.rics] == [
            str(r) for r in via_sqlite.schema.rics
        ]
        for table in ("person", "book"):
            assert (
                via_dump.schema.table(table).primary_key
                == via_sqlite.schema.table(table).primary_key
            )

    def test_introspection_result_metadata(self):
        result = introspect_backend(DumpBackend.from_text(PG_DUMP))
        assert result.backend == "pgdump"
        assert result.type_categories["person"]["age"] == "integer"
        assert set(result.table_fingerprints) == {"person", "book"}
        assert result.catalog_fingerprint
