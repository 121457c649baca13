"""Integration tests for scenario assembly from live databases."""

import json

import pytest

from repro.datasets.instances import generate_instance
from repro.datasets.registry import load_dataset
from repro.discovery import discover_mappings
from repro.exceptions import IngestError
from repro.ingest import (
    ingest_pair,
    introspect_sqlite,
    materialize_sqlite,
    resolve_cm_argument,
    sample_instance,
)
from repro.mappings.serialize import dump_mapping_set


@pytest.fixture(scope="module")
def dblp_files(tmp_path_factory):
    """The DBLP pair materialized to real SQLite files with instances."""
    directory = tmp_path_factory.mktemp("dblp")
    pair = load_dataset("DBLP")
    paths = {}
    for name, side in (("source", pair.source), ("target", pair.target)):
        instance = generate_instance(side.schema, rows_per_table=3)
        path = str(directory / f"{name}.db")
        materialize_sqlite(side.schema, path, instance=instance).close()
        paths[name] = path
    return pair, paths


class TestRoundTripFidelity:
    def test_schema_reproduced_exactly(self, dblp_files):
        pair, paths = dblp_files
        introspection = introspect_sqlite(paths["source"])
        authored = pair.source.schema
        assert introspection.schema.table_names() == authored.table_names()
        for name in authored.table_names():
            assert (
                introspection.schema.table(name).columns
                == authored.table(name).columns
            )
            assert (
                introspection.schema.table(name).primary_key
                == authored.table(name).primary_key
            )
        assert [str(r) for r in introspection.schema.rics] == [
            str(r) for r in authored.rics
        ]

    def test_recovered_trees_match_authored_semantics(self, dblp_files):
        pair, paths = dblp_files
        ingested = ingest_pair(
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            correspondences=pair.cases[0].correspondences,
        )
        for side, authored in (
            (ingested.source, pair.source),
            (ingested.target, pair.target),
        ):
            assert side.recovery.coverage() == 1.0
            for table_name in authored.tables_with_semantics():
                recovered_tree = side.semantics.tree(table_name)
                authored_tree = authored.tree(table_name)
                assert (
                    recovered_tree.anchor.cm_node
                    == authored_tree.anchor.cm_node
                ), table_name

    def test_discovery_byte_identical_to_authored_path(self, dblp_files):
        pair, paths = dblp_files
        for case in pair.cases:
            ingested = ingest_pair(
                paths["source"],
                paths["target"],
                pair.source.model,
                pair.target.model,
                scenario_id=case.case_id,
                correspondences=case.correspondences,
            )
            live = ingested.scenario.run()
            authored = discover_mappings(
                pair.source, pair.target, case.correspondences
            )
            assert dump_mapping_set(live.candidates) == dump_mapping_set(
                authored.candidates
            ), case.case_id

    def test_emitted_wire_spec_replays_identically(self, dblp_files):
        from repro.service.wire import scenario_from_wire

        pair, paths = dblp_files
        case = pair.cases[0]
        ingested = ingest_pair(
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            scenario_id=case.case_id,
            correspondences=case.correspondences,
        )
        document = json.loads(json.dumps(ingested.to_wire()))
        replayed = scenario_from_wire(document).run()
        direct = ingested.scenario.run()
        assert dump_mapping_set(replayed.candidates) == dump_mapping_set(
            direct.candidates
        )

    def test_fingerprint_stable_across_ingestions(self, dblp_files):
        pair, paths = dblp_files
        case = pair.cases[0]
        kwargs = dict(
            scenario_id=case.case_id,
            correspondences=case.correspondences,
        )
        first = ingest_pair(
            paths["source"], paths["target"],
            pair.source.model, pair.target.model, **kwargs,
        )
        second = ingest_pair(
            paths["source"], paths["target"],
            pair.source.model, pair.target.model, **kwargs,
        )
        from repro.discovery.batch import scenario_fingerprint

        assert scenario_fingerprint(first.scenario) == scenario_fingerprint(
            second.scenario
        )


class TestSampling:
    def test_sampling_is_deterministic(self, dblp_files):
        _, paths = dblp_files
        introspection = introspect_sqlite(paths["source"])
        first = sample_instance(paths["source"], introspection, 5)
        second = sample_instance(paths["source"], introspection, 5)
        for table in introspection.schema.table_names():
            assert first.rows(table) == second.rows(table)
            assert len(first.rows(table)) <= 5

    def test_sample_rows_populates_instances(self, dblp_files):
        pair, paths = dblp_files
        ingested = ingest_pair(
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            correspondences=pair.cases[0].correspondences,
            sample_rows=10,
        )
        assert ingested.source_instance is not None
        assert ingested.source_instance.size() > 0
        assert ingested.target_instance is not None

    def test_nonpositive_sample_refused(self, dblp_files):
        _, paths = dblp_files
        introspection = introspect_sqlite(paths["source"])
        with pytest.raises(IngestError):
            sample_instance(paths["source"], introspection, 0)


class TestDiagnosticsNeverSilent:
    def test_uninterpretable_table_reported_not_dropped(self, tmp_path):
        from repro.cm import ConceptualModel
        from repro.ingest import connect_memory_from_sql, recover_introspected

        cm = ConceptualModel("m")
        cm.add_class("Thing", attributes=["tid"], key=["tid"])
        connection = connect_memory_from_sql(
            "CREATE TABLE thing (tid TEXT PRIMARY KEY);"
            "CREATE TABLE mystery (blob1 TEXT PRIMARY KEY, blob2 TEXT);"
        )
        try:
            side = recover_introspected(introspect_sqlite(connection), cm)
        finally:
            connection.close()
        skipped = [
            d
            for d in side.validation.diagnostics
            if d.code == "ingest.recover.table-skipped"
        ]
        assert skipped, side.validation.render()
        assert "mystery" in skipped[0].location

    def test_strict_mode_turns_warnings_into_failure(self):
        from repro.cm import ConceptualModel
        from repro.ingest import connect_memory_from_sql, recover_introspected

        cm = ConceptualModel("m")
        cm.add_class("Thing", attributes=["tid"], key=["tid"])
        connection = connect_memory_from_sql(
            "CREATE TABLE thing (tid TEXT PRIMARY KEY);"
            "CREATE TABLE mystery (blob1 TEXT PRIMARY KEY);"
        )
        try:
            # The summary is ValidationReport.error_summary's.
            with pytest.raises(
                IngestError,
                match=r"left 1 error\(s\): error: "
                r"ingest\.recover\.table-skipped \[\w+\.mystery\]",
            ):
                recover_introspected(
                    introspect_sqlite(connection), cm, strict=True
                )
        finally:
            connection.close()


class TestCmResolution:
    def test_dataset_name_resolves_to_pair_models(self):
        source_model, target_model = resolve_cm_argument("DBLP")
        pair = load_dataset("DBLP")
        assert source_model.class_names() == pair.source.model.class_names()
        assert target_model.class_names() == pair.target.model.class_names()

    def test_json_file_shared_by_both_sides(self, tmp_path):
        from repro.cm import ConceptualModel
        from repro.cm.serialize import model_to_dict

        cm = ConceptualModel("m")
        cm.add_class("Thing", attributes=["tid"], key=["tid"])
        path = tmp_path / "cm.json"
        path.write_text(json.dumps(model_to_dict(cm)), encoding="utf-8")
        source_model, target_model = resolve_cm_argument(str(path))
        assert source_model is target_model
        assert source_model.has_class("Thing")

    def test_unknown_argument_names_datasets(self):
        with pytest.raises(IngestError, match="DBLP"):
            resolve_cm_argument("no-such-thing")
