"""Unit tests for mapping verification against instances."""

import pytest

from repro.datasets.instances import generate_instance
from repro.datasets.registry import load_dataset
from repro.discovery import discover_mappings
from repro.mappings import exchange
from repro.mappings.verify import (
    VerificationReport,
    tgd_violations,
    verify_mappings,
)
from repro.queries.parser import parse_query
from repro.mappings.tgd import SourceToTargetTGD
from repro.relational import Instance, RelationalSchema, Table


@pytest.fixture
def simple():
    source_schema = RelationalSchema("s", [Table("a", ["x"], ["x"])])
    target_schema = RelationalSchema("t", [Table("b", ["x"], ["x"])])
    tgd = SourceToTargetTGD(
        parse_query("ans(x) :- a(x)"),
        parse_query("ans(x) :- b(x)"),
        "copy",
    )
    source = Instance.from_dict(source_schema, {"a": [("1",), ("2",)]})
    return tgd, source, target_schema


class TestTgdViolations:
    def test_satisfied_pair(self, simple):
        tgd, source, target_schema = simple
        target = Instance.from_dict(
            target_schema, {"b": [("1",), ("2",), ("3",)]}
        )
        assert tgd_violations(tgd, source, target) == []

    def test_missing_tuple_reported(self, simple):
        tgd, source, target_schema = simple
        target = Instance.from_dict(target_schema, {"b": [("1",)]})
        violations = tgd_violations(tgd, source, target)
        assert len(violations) == 1
        assert violations[0].exported == ("2",)
        assert "no target tuple" in str(violations[0])

    def test_limit_respected(self, simple):
        tgd, _, target_schema = simple
        big_source = Instance.from_dict(
            RelationalSchema("s", [Table("a", ["x"], ["x"])]),
            {"a": [(str(i),) for i in range(20)]},
        )
        target = Instance(target_schema)
        assert len(tgd_violations(tgd, big_source, target, limit=5)) == 5


class TestVerifyMappings:
    def test_exchange_output_always_verifies(self):
        pair = load_dataset("Hotel")
        source = generate_instance(pair.source.schema, rows_per_table=3)
        tgds = []
        for mapping_case in pair.cases:
            result = discover_mappings(
                pair.source, pair.target, mapping_case.correspondences
            )
            tgds.append(result.best().to_tgd(mapping_case.case_id))
        target = exchange(tgds, source, pair.target.schema)
        report = verify_mappings(tgds, source, target)
        assert report.ok
        assert len(report.satisfied) == len(tgds)

    def test_empty_target_reports_everything(self, simple):
        tgd, source, target_schema = simple
        report = verify_mappings([tgd], source, Instance(target_schema))
        assert not report.ok
        assert report.satisfied == ()
        assert "violation" in str(report)


class TestSampledLiveInstances:
    """Verification against instances sampled from live SQLite files.

    The ingest path feeds ``verify_mappings`` rows read back through
    ``PRAGMA`` introspection and deterministic sampling rather than
    in-memory fixtures; both the satisfied and the violated-with-witness
    outcomes must survive that round trip.
    """

    def _sampled(self, schema, rows):
        from repro.ingest import (
            introspect_sqlite,
            materialize_sqlite,
            sample_instance,
        )

        instance = Instance.from_dict(schema, rows)
        connection = materialize_sqlite(schema, instance=instance)
        try:
            introspection = introspect_sqlite(connection)
            return sample_instance(connection, introspection)
        finally:
            connection.close()

    def test_satisfied_on_sampled_pair(self, simple):
        tgd, source, target_schema = simple
        sampled_source = self._sampled(
            source.schema, {"a": [("1",), ("2",)]}
        )
        sampled_target = self._sampled(
            target_schema, {"b": [("1",), ("2",)]}
        )
        report = verify_mappings([tgd], sampled_source, sampled_target)
        assert report.ok
        assert len(report.satisfied) == 1

    def test_violation_carries_witness_from_live_rows(self, simple):
        tgd, source, target_schema = simple
        sampled_source = self._sampled(
            source.schema, {"a": [("1",), ("2",)]}
        )
        sampled_target = self._sampled(target_schema, {"b": [("1",)]})
        report = verify_mappings([tgd], sampled_source, sampled_target)
        assert not report.ok
        (violation,) = report.violated
        assert violation.exported == ("2",)

    def test_dataset_exchange_verifies_after_sqlite_round_trip(self):
        """Hotel end to end: generated instance → SQLite → sampled back
        → exchanged target also round-tripped → every TGD satisfied."""
        pair = load_dataset("Hotel")
        source = generate_instance(pair.source.schema, rows_per_table=3)
        case = pair.cases[0]
        result = discover_mappings(
            pair.source, pair.target, case.correspondences
        )
        tgd = result.best().to_tgd(case.case_id)
        sampled_source = self._sampled(
            pair.source.schema,
            {
                name: list(source.rows(name))
                for name in pair.source.schema.table_names()
            },
        )
        target = exchange([tgd], sampled_source, pair.target.schema)
        report = verify_mappings([tgd], sampled_source, target)
        assert report.ok
