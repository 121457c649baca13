"""Unit tests for SQL DDL emission."""

import pytest

from repro.relational import ReferentialConstraint, RelationalSchema, Table
from repro.relational.ddl import emit_ddl, emit_table_ddl


@pytest.fixture
def schema() -> RelationalSchema:
    schema = RelationalSchema("src")
    schema.add_table(Table("person", ["pname", "age"], ["pname"]))
    schema.add_table(Table("writes", ["pname", "bid"], ["pname", "bid"]))
    schema.add_table(Table("book", ["bid"], ["bid"]))
    schema.add_ric(ReferentialConstraint.parse("writes.pname -> person.pname"))
    schema.add_ric(ReferentialConstraint.parse("writes.bid -> book.bid"))
    return schema


class TestEmit:
    def test_table_ddl_structure(self, schema):
        text = emit_table_ddl(schema.table("writes"), schema)
        assert text.startswith("CREATE TABLE writes (")
        assert "PRIMARY KEY (pname, bid)" in text
        assert "FOREIGN KEY (pname) REFERENCES person (pname)" in text
        assert "FOREIGN KEY (bid) REFERENCES book (bid)" in text
        assert text.endswith(");")

    def test_emit_covers_all_tables(self, schema):
        text = emit_ddl(schema)
        assert text.count("CREATE TABLE") == 3

    def test_keyless_table_has_no_pk_clause(self):
        schema = RelationalSchema("s", [Table("log", ["entry"])])
        assert "PRIMARY KEY" not in emit_ddl(schema)

    def test_dataset_schemas_read_back_through_the_dump_backend(self):
        from repro.datasets.registry import load_all_datasets
        from repro.ingest import DumpBackend, introspect_backend

        for pair in load_all_datasets():
            for semantics in (pair.source, pair.target):
                schema = semantics.schema
                parsed = introspect_backend(
                    DumpBackend.from_text(emit_ddl(schema))
                ).schema
                assert parsed.table_names() == schema.table_names()
                for table in schema:
                    assert parsed.table(table.name).columns == table.columns
                    assert (
                        parsed.table(table.name).primary_key
                        == table.primary_key
                    )
                assert {str(r) for r in parsed.rics} == {
                    str(r) for r in schema.rics
                }
