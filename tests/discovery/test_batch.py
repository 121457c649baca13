"""Unit tests for the batch discovery front-end."""

from __future__ import annotations

import pytest

from repro.discovery import (
    BatchDiscovery,
    Scenario,
    SemanticMapper,
    discover_many,
    scenarios_for_cases,
)
from repro.discovery.batch import _group_by_pair


def _tgds(result):
    return [
        candidate.to_tgd(f"M{index}")
        for index, candidate in enumerate(result, start=1)
    ]


@pytest.fixture(scope="module")
def scenarios(bookstore, employee):
    return [
        Scenario.create(
            "bookstore",
            bookstore.source,
            bookstore.target,
            bookstore.correspondences,
        ),
        Scenario.create(
            "employee",
            employee.source,
            employee.target,
            employee.correspondences,
        ),
    ]


def test_serial_matches_individual_mappers(scenarios, bookstore, employee):
    batch = discover_many(scenarios, workers=1)
    assert len(batch) == 2
    for example, (scenario_id, result) in zip(
        (bookstore, employee), batch.results
    ):
        fresh = SemanticMapper(
            example.source, example.target, example.correspondences
        ).discover()
        assert _tgds(result) == _tgds(fresh), scenario_id


def test_results_keep_input_order(scenarios):
    batch = discover_many(list(reversed(scenarios)), workers=1)
    assert [scenario_id for scenario_id, _ in batch.results] == [
        "employee",
        "bookstore",
    ]


def test_result_for(scenarios):
    batch = discover_many(scenarios, workers=1)
    assert len(batch.result_for("bookstore")) >= 1
    with pytest.raises(KeyError):
        batch.result_for("missing")


def test_parallel_matches_serial(scenarios):
    serial = discover_many(scenarios, workers=1)
    parallel = discover_many(scenarios, workers=2)
    assert [sid for sid, _ in parallel.results] == [
        sid for sid, _ in serial.results
    ]
    for (_, left), (_, right) in zip(serial.results, parallel.results):
        assert _tgds(left) == _tgds(right)


def test_aggregate_stats(scenarios):
    batch = discover_many(scenarios, workers=1)
    assert batch.stats["scenarios"] == 2
    assert batch.stats["total_discovery_seconds"] >= 0
    assert batch.notes == []


def test_aggregate_span_seconds_are_float_sums(scenarios):
    import repro.perf as perf

    perf.clear_caches()
    batch = discover_many(scenarios, workers=1)
    keys = {
        key
        for _, result in batch.results
        for key in result.stats
        if key.startswith(("time_", "self_"))
    }
    assert "self_translate_s" in keys
    for key in keys:
        expected = 0
        for _, result in batch.results:
            expected += result.stats.get(key, 0)
        assert isinstance(batch.stats[key], float), key
        assert batch.stats[key] == expected, key


def test_grouping_by_schema_pair(scenarios, bookstore):
    extra = Scenario.create(
        "bookstore-2",
        bookstore.source,
        bookstore.target,
        bookstore.correspondences,
    )
    groups = _group_by_pair(scenarios + [extra])
    assert len(groups) == 2
    sizes = sorted(len(group) for group in groups)
    assert sizes == [1, 2]


def test_workers_validation():
    with pytest.raises(ValueError):
        BatchDiscovery(workers=0)


def test_scenarios_for_cases(bookstore):
    built = scenarios_for_cases(
        bookstore.source,
        bookstore.target,
        [("one", bookstore.correspondences), ("two", bookstore.correspondences)],
    )
    assert [scenario.scenario_id for scenario in built] == ["one", "two"]
    assert built[0].source is bookstore.source
