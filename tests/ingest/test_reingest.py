"""Tests for incremental re-ingestion (catalog drift → selective redo)."""

import sqlite3

import pytest

from repro.datasets.instances import generate_instance
from repro.datasets.registry import load_dataset
from repro.ingest import ingest_pair, materialize_sqlite, reingest_pair


@pytest.fixture
def hotel(tmp_path):
    pair = load_dataset("Hotel")
    paths = {}
    for name, side in (("source", pair.source), ("target", pair.target)):
        instance = generate_instance(side.schema, rows_per_table=3)
        path = str(tmp_path / f"{name}.db")
        materialize_sqlite(side.schema, path, instance=instance).close()
        paths[name] = path
    return pair, paths


@pytest.fixture
def cold(hotel):
    pair, paths = hotel
    return ingest_pair(
        paths["source"],
        paths["target"],
        pair.source.model,
        pair.target.model,
        correspondences=pair.cases[0].correspondences,
        scenario_id="hotel-reingest",
    )


class TestNoDrift:
    def test_everything_reused(self, hotel, cold):
        pair, paths = hotel
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
        )
        for drift in (report.source_drift, report.target_drift):
            assert drift.changed == ()
            assert drift.added == ()
            assert drift.removed == ()
            assert drift.dependents == ()
            assert drift.dirty == ()
        assert report.recovered_tables == 0
        # every table with semantics was adopted verbatim
        assert set(report.source_drift.reused) == set(
            cold.source.semantics.tables_with_semantics()
        )
        assert set(report.target_drift.reused) == set(
            cold.target.semantics.tables_with_semantics()
        )

    def test_rediscovery_fully_replays(self, hotel, cold):
        pair, paths = hotel
        previous_result = cold.scenario.run()
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            previous_result=previous_result,
        )
        assert report.rediscovery is not None
        assert report.rediscovery.full_reuse
        assert report.mapping_diff is not None
        assert report.mapping_diff.is_empty

    def test_candidates_byte_identical_to_cold(self, hotel, cold):
        pair, paths = hotel
        cold_tgds = [str(c) for c in cold.scenario.run().candidates]
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            run=True,
        )
        warm_tgds = [
            str(c) for c in report.rediscovery.result.candidates
        ]
        assert warm_tgds == cold_tgds


class TestOneTableDrift:
    def _drift_guest(self, paths):
        connection = sqlite3.connect(paths["source"])
        connection.execute(
            'CREATE UNIQUE INDEX guest_gname ON "guest" ("gname")'
        )
        connection.commit()
        connection.close()

    def test_only_drifted_table_and_dependents_redone(self, hotel, cold):
        pair, paths = hotel
        self._drift_guest(paths)
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
        )
        assert report.source_drift.changed == ("guest",)
        # booking.gid -> guest.gid resolves through the drifted anchor
        assert report.source_drift.dependents == ("booking",)
        assert set(report.source_drift.dirty) == {"guest", "booking"}
        assert "guest" not in report.source_drift.reused
        assert "booking" not in report.source_drift.reused
        expected_reused = set(
            cold.source.semantics.tables_with_semantics()
        ) - {"guest", "booking"}
        assert set(report.source_drift.reused) == expected_reused
        # the untouched side reuses everything
        assert report.target_drift.dirty == ()
        assert set(report.target_drift.reused) == set(
            cold.target.semantics.tables_with_semantics()
        )

    def test_catalog_only_drift_keeps_discovery_warm(self, hotel, cold):
        # A unique index never enters the recovered semantics, so the
        # re-derived trees are equal and every discovery stage replays.
        pair, paths = hotel
        previous_result = cold.scenario.run()
        self._drift_guest(paths)
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            previous_result=previous_result,
        )
        assert report.rediscovery is not None
        assert report.rediscovery.full_reuse
        assert report.mapping_diff.is_empty

    def test_added_table_recovers_without_reuse(self, hotel, cold):
        pair, paths = hotel
        connection = sqlite3.connect(paths["source"])
        connection.execute(
            'CREATE TABLE "annex" ("aid" TEXT PRIMARY KEY)'
        )
        connection.commit()
        connection.close()
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
        )
        assert report.source_drift.added == ("annex",)
        assert "annex" in report.source_drift.dirty
        assert report.source_drift.changed == ()

    def test_report_wire_and_describe(self, hotel, cold):
        pair, paths = hotel
        self._drift_guest(paths)
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            pair.source.model,
            pair.target.model,
            run=True,
        )
        document = report.to_wire()
        assert document["source"]["changed"] == ["guest"]
        assert document["recovered_tables"] == 2
        assert "rediscovery" in document
        text = report.describe()
        assert "re-recovered" in text
        assert "guest" in text


class TestModelDrift:
    def test_tree_over_a_lost_relationship_is_rebuilt(self, hotel, cold):
        """The catalog is unchanged, but the model lost ``mainAmenity``:
        the room tree that used it no longer fits and is re-derived, not
        adopted (nor a crash); every other tree is still reused."""
        from repro.cm.serialize import model_from_dict, model_to_dict

        pair, paths = hotel
        document = model_to_dict(pair.source.model)
        document["relationships"] = [
            rel
            for rel in document["relationships"]
            if rel["name"] != "mainAmenity"
        ]
        report = reingest_pair(
            cold,
            paths["source"],
            paths["target"],
            model_from_dict(document),
            pair.target.model,
        )
        assert report.source_drift.dirty == ()
        assert "room" not in report.source_drift.reused
        assert set(report.source_drift.reused) == set(
            cold.source.semantics.tables_with_semantics()
        ) - {"room"}
        semantics = report.ingested.source.semantics
        assert semantics.has_tree("room")
        assert "mainAmenity" not in {
            edge.cm_edge.label for edge in semantics.tree("room").edges
        }
