"""Every dataset case through every catalog backend, against the
authored path.

Each registered dataset pair is forward-engineered with a generated
instance twice: into real SQLite files and into Postgres-style SQL
dumps. Both are read back through their
:class:`~repro.ingest.backends.CatalogBackend`, and every case of the
pair is discovered from the ingested scenario. The mappings must be
byte-identical (``dump_mapping_set``) to discovery over the authored
semantics, and no ingestion may report an error-severity diagnostic.
"""

from __future__ import annotations

import pytest

from repro.datasets.instances import generate_instance
from repro.datasets.registry import dataset_names, load_dataset
from repro.discovery import discover_mappings
from repro.ingest import ingest_pair, materialize_sqlite, pgdump_ddl
from repro.mappings.serialize import dump_mapping_set

#: Rows generated per table for the materialized instances.
ROWS_PER_TABLE = 4


def _materialize(semantics, directory, name: str, backend: str) -> str:
    """One side's schema and generated instance in ``backend``'s format."""
    instance = generate_instance(semantics.schema, rows_per_table=ROWS_PER_TABLE)
    if backend == "sqlite":
        path = str(directory / f"{name}.db")
        materialize_sqlite(semantics.schema, path, instance=instance).close()
        return path
    path = directory / f"{name}.sql"
    path.write_text(
        pgdump_ddl(semantics.schema, instance=instance), encoding="utf-8"
    )
    return str(path)


@pytest.mark.parametrize("backend", ["sqlite", "pgdump"])
@pytest.mark.parametrize("name", sorted(dataset_names()))
def test_every_case_byte_identical_to_authored_path(name, backend, tmp_path):
    pair = load_dataset(name)
    source_db = _materialize(pair.source, tmp_path, "source", backend)
    target_db = _materialize(pair.target, tmp_path, "target", backend)
    assert pair.cases
    for case in pair.cases:
        ingested = ingest_pair(
            source_db,
            target_db,
            pair.source.model,
            pair.target.model,
            scenario_id=case.case_id,
            correspondences=case.correspondences,
            backend=backend,
        )
        errors = [str(d) for d in ingested.validation().errors]
        assert errors == [], f"{case.case_id}: {errors}"
        authored = discover_mappings(
            pair.source, pair.target, case.correspondences
        )
        assert dump_mapping_set(
            ingested.scenario.run().candidates
        ) == dump_mapping_set(authored.candidates), case.case_id
