"""SQL DDL emission for relational schemas.

``emit_ddl`` renders a :class:`RelationalSchema` as portable
``CREATE TABLE`` statements (every column typed ``TEXT`` — the paper's
algorithms are type-agnostic). Reading DDL back is the ingest layer's
job: the ``pgdump`` catalog backend parses it (``docs/ingestion.md``).
"""

from __future__ import annotations

from repro.relational.schema import RelationalSchema, Table


def emit_table_ddl(table: Table, schema: RelationalSchema) -> str:
    """``CREATE TABLE`` text for one table, with PK and FK clauses."""
    lines = [f"CREATE TABLE {table.name} ("]
    body = [f"    {column} TEXT" for column in table.columns]
    if table.primary_key:
        body.append(
            f"    PRIMARY KEY ({', '.join(table.primary_key)})"
        )
    for ric in schema.rics_from(table.name):
        body.append(
            f"    FOREIGN KEY ({', '.join(ric.child_columns)}) "
            f"REFERENCES {ric.parent_table} "
            f"({', '.join(ric.parent_columns)})"
        )
    lines.append(",\n".join(body))
    lines.append(");")
    return "\n".join(lines)


def emit_ddl(schema: RelationalSchema) -> str:
    """The whole schema as DDL, tables in declaration order."""
    statements = [
        emit_table_ddl(table, schema) for table in schema
    ]
    return "\n\n".join(statements) + "\n"

