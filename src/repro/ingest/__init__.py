"""``repro.ingest``: database ingestion — real catalogs in, scenarios out.

The paper assumes every legacy table already carries recovered
semantics; the rest of this library assumed every scenario was
hand-authored in Python. This package closes the gap: point it at a
pair of *real* database catalogs plus a conceptual model and get back a
ready-to-discover :class:`~repro.discovery.batch.Scenario`:

* :mod:`repro.ingest.backends` — the dialect layer: a
  :class:`~repro.ingest.backends.CatalogBackend` protocol answering
  every catalog question (tables, columns, keys, samples, type
  categories, per-table fingerprints), implemented for live SQLite
  databases and for parsed (never executed) ``pg_dump``/``mysqldump``
  SQL text;
* :mod:`repro.ingest.introspect` — the dialect-agnostic core: read any
  backend into a :class:`~repro.relational.schema.RelationalSchema`,
  with virt-graph style pattern recognition (edge tables, ``_id`` FK
  hints, natural-key indexes, soft deletes) surfaced as structured
  :class:`~repro.validation.Diagnostic` records;
* :mod:`repro.ingest.recover` — run the heuristic semantics recoverer
  against the CM and fold uninterpreted tables/columns into a
  :class:`~repro.validation.ValidationReport` (reported, never dropped);
* :mod:`repro.ingest.correspond` — seed correspondences through the
  shared CM with the baseline matcher plus a backend type-category
  penalty and a value-overlap signal over sampled rows, or accept an
  explicit correspondence file;
* :mod:`repro.ingest.scenario` — assemble the content-fingerprinted
  scenario (the persistent stage cache and service result cache apply
  unchanged) and optionally sample rows for TGD verification;
* :mod:`repro.ingest.reingest` — incremental re-ingestion: per-table
  catalog fingerprints decide which tables to re-recover after drift,
  feeding :func:`~repro.discovery.incremental.rediscover` and a
  semantic mapping diff;
* :mod:`repro.ingest.fixture` — the inverse direction: forward-engineer
  library schemas into live SQLite databases or Postgres-style dumps,
  used by the round-trip tests and the CI smoke jobs.

Front doors: ``python -m repro introspect SOURCE TARGET --cm NAME
--backend {sqlite,pgdump,auto}`` and the service's ``POST /introspect``
(see ``docs/ingestion.md``).
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.ingest.backends": (
            "BACKEND_CHOICES",
            "backend_for",
            "detect_backend",
        ),
        "repro.ingest.backends.base": (
            "CatalogBackend",
            "ColumnDef",
            "ForeignKeyDef",
            "TYPE_CATEGORIES",
        ),
        "repro.ingest.backends.pgdump": ("DumpBackend",),
        "repro.ingest.backends.sqlite": (
            "SQLiteBackend",
            "type_affinity",
            "connect_memory_from_sql",
        ),
        "repro.ingest.correspond": (
            "parse_correspondence_lines",
            "seed_correspondences",
            "value_jaccard",
        ),
        "repro.ingest.fixture": (
            "materialize_sqlite",
            "pgdump_ddl",
            "sqlite_ddl",
        ),
        "repro.ingest.introspect": (
            "CatalogIntrospector",
            "IntrospectionResult",
            "introspect_backend",
            "introspect_sqlite",
        ),
        "repro.ingest.recover": ("RecoveredSide", "recover_introspected"),
        "repro.ingest.reingest": (
            "ReingestReport",
            "TableDrift",
            "reingest_pair",
        ),
        "repro.ingest.scenario": (
            "IngestedScenario",
            "ingest_pair",
            "instance_values",
            "resolve_cm_argument",
            "sample_instance",
            "sample_instance_from_backend",
        ),
    },
)
