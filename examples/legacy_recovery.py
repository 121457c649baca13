"""Recovering semantics for a legacy schema, then discovering mappings.

The paper's pipeline assumes table semantics exist; when they don't, a
companion tool recovers them from the bare schema plus an existing CM.
This example plays that scenario: the Network source schema arrives as
*plain DDL* (no semantics), gets read by the ingest layer's SQL-dump
catalog backend, anchored against the networkA ontology by the heuristic
recoverer, and then drives the same mapping discovery as hand-curated
semantics would.

Run:  python examples/legacy_recovery.py
"""

from repro.datasets.registry import load_dataset
from repro.discovery import SemanticMapper
from repro.ingest import DumpBackend, introspect_backend
from repro.relational.ddl import emit_ddl
from repro.semantics import recover_semantics


def main() -> None:
    pair = load_dataset("Network")

    # Pretend the source arrives as bare DDL from a legacy database.
    ddl = emit_ddl(pair.source.schema)
    legacy_schema = introspect_backend(
        DumpBackend.from_text(ddl), "networkA"
    ).schema
    print(
        f"Parsed legacy schema: {len(legacy_schema)} tables, "
        f"{len(legacy_schema.rics)} foreign keys — no semantics attached."
    )

    report = recover_semantics(legacy_schema, pair.source.model)
    print(
        f"Recovered semantics for "
        f"{len(report.semantics.tables_with_semantics())}/"
        f"{len(legacy_schema)} tables "
        f"(skipped: {report.skipped_tables or 'none'}, "
        f"unmapped columns: {report.unmapped_columns or 'none'})"
    )
    tree = report.semantics.tree("interface")
    print("\nRecovered s-tree for 'interface':")
    print(tree.describe())

    # The recovered semantics drive discovery exactly like curated ones.
    case = next(
        c for c in pair.cases if c.case_id == "network-router-switch-merge"
    )
    result = SemanticMapper(
        report.semantics, pair.target, case.correspondences
    ).discover()
    print(f"\n[{case.case_id}] with recovered source semantics:")
    for candidate in result:
        print(f"  {candidate.to_tgd('M')}")


if __name__ == "__main__":
    main()
