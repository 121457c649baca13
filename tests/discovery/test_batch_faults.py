"""Fault-isolation tests for batch discovery.

Covers the robustness layer: per-scenario error capture, timeouts,
input validation, and the 20-scenario acceptance run with one injected
crash, one injected timeout, and one scenario that fails validation.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets.paper_examples import bookstore_example, employee_example
from repro.discovery import Scenario, discover_many
from repro.deadline import check_deadline
from repro.exceptions import ScenarioTimeout


def _tgds(result):
    return [
        candidate.to_tgd(f"M{index}")
        for index, candidate in enumerate(result, start=1)
    ]


def _good(scenario_id, example):
    return Scenario.create(
        scenario_id, example.source, example.target, example.correspondences
    )


def _crashing(scenario_id, example):
    """Run raises ValueError: the bogus option pair survives construction
    and blows up when the scenario's options are parsed."""
    return Scenario(
        scenario_id,
        example.source,
        example.target,
        example.correspondences,
        (("explode_on_contact", True),),
    )


def _invalid(scenario_id, example, other):
    """Run raises ValidationError: ``example``'s correspondences name
    columns that ``other``'s target schema lacks."""
    return Scenario.create(
        scenario_id, example.source, other.target, example.correspondences
    )


class SlowScenario(Scenario):
    """Spins far past any test timeout before delegating.

    The limit is a cooperative deadline that a sleep never sees, so the
    spin checks it the way discovery's search loops do.
    """

    def run(self):
        give_up = time.monotonic() + 30.0
        while time.monotonic() < give_up:
            check_deadline()
            time.sleep(0.01)
        return super().run()


def _slow(scenario_id, example):
    return SlowScenario(
        scenario_id, example.source, example.target, example.correspondences
    )


class TestInjectedWorkerException:
    def test_failure_is_structured_and_batch_completes(
        self, bookstore, employee
    ):
        scenarios = [
            _good("ok-1", bookstore),
            _crashing("boom", bookstore),
            _good("ok-2", employee),
        ]
        batch = discover_many(scenarios)
        assert len(batch) == 2
        assert [sid for sid, _ in batch.results] == ["ok-1", "ok-2"]
        (failure,) = batch.failures
        assert failure.scenario_id == "boom"
        assert failure.error_type == "ValueError"
        assert "explode_on_contact" in failure.message
        assert failure.traceback_summary
        assert failure.elapsed_seconds >= 0
        assert batch.stats["failed"] == 1
        assert batch.stats["succeeded"] == 2
        assert batch.stats["scenarios"] == 3

    def test_serial_mode_isolates_too(self, bookstore):
        scenarios = [_crashing("boom", bookstore), _good("ok", bookstore)]
        batch = discover_many(scenarios)
        assert len(batch) == 1
        assert batch.failure_for("boom") is not None
        assert batch.result_for("ok") is not None

    def test_result_for_failed_id_raises_with_context(self, bookstore):
        batch = discover_many([_crashing("boom", bookstore)])
        with pytest.raises(KeyError, match="ValueError"):
            batch.result_for("boom")
        with pytest.raises(KeyError):
            batch.result_for("never-submitted")


class TestScenarioTimeout:
    def test_serial_timeout_records_failure(self, bookstore):
        scenarios = [_slow("sleepy", bookstore), _good("ok", bookstore)]
        batch = discover_many(scenarios, timeout_seconds=0.3)
        assert len(batch) == 1
        (failure,) = batch.failures
        assert failure.error_type == ScenarioTimeout.__name__
        assert "wall-clock" in failure.message
        assert 0.2 <= failure.elapsed_seconds < 5.0
        assert batch.stats["timeouts"] == 1


class TestInputValidation:
    def test_duplicate_scenario_ids_rejected(self, bookstore):
        scenarios = [_good("twin", bookstore), _good("twin", bookstore)]
        with pytest.raises(ValueError, match="duplicate scenario_id"):
            discover_many(scenarios)

    @pytest.mark.parametrize(
        "kwargs",
        [{"timeout_seconds": 0}, {"timeout_seconds": -1.5}],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError, match="timeout_seconds"):
            discover_many([], **kwargs)


# ---------------------------------------------------------------------------
# Acceptance: a 20-scenario batch with three bad scenarios
# ---------------------------------------------------------------------------
class TestTwentyScenarioAcceptance:
    """20 scenarios, one crash, one timeout, one invalid spec:
    17 results byte-identical to a clean run, 3 structured failures."""

    @pytest.fixture(scope="class")
    def batch_and_reference(self):
        bookstore = bookstore_example()
        employee = employee_example()
        examples = [bookstore, employee]
        good = [
            _good(f"good-{index}", examples[index % 2])
            for index in range(17)
        ]
        scenarios = list(good)
        scenarios.insert(4, _crashing("crash", bookstore))
        scenarios.insert(11, _slow("timeout", employee))
        scenarios.insert(17, _invalid("invalid", bookstore, employee))
        assert len(scenarios) == 20
        batch = discover_many(scenarios, timeout_seconds=1.0)
        reference = discover_many(good)
        return batch, reference

    def test_seventeen_results_match_serial_byte_for_byte(
        self, batch_and_reference
    ):
        batch, reference = batch_and_reference
        assert len(batch) == 17
        batch_tgds = {sid: _tgds(result) for sid, result in batch.results}
        clean_tgds = {
            sid: _tgds(result) for sid, result in reference.results
        }
        assert batch_tgds == clean_tgds

    def test_three_structured_failures(self, batch_and_reference):
        batch, _ = batch_and_reference
        assert len(batch.failures) == 3
        by_id = {failure.scenario_id: failure for failure in batch.failures}
        assert by_id["crash"].error_type == "ValueError"
        assert by_id["timeout"].error_type == ScenarioTimeout.__name__
        assert by_id["invalid"].error_type == "ValidationError"
        assert "correspondence.target-column" in by_id["invalid"].message

    def test_stats_and_status_reflect_partial_failure(
        self, batch_and_reference
    ):
        batch, _ = batch_and_reference
        assert not batch.ok
        assert batch.stats["scenarios"] == 20
        assert batch.stats["succeeded"] == 17
        assert batch.stats["failed"] == 3
        assert batch.stats["timeouts"] == 1
        with pytest.raises(Exception):
            batch.raise_first_failure()
