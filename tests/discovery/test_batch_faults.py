"""Fault-isolation tests for batch discovery.

Covers the robustness layer: per-scenario error capture, timeouts,
worker-death retries, the picklability probe (including late unpicklable
scenarios and non-``PicklingError`` pickle failures), content-identity
grouping, and the 20-scenario acceptance run with one injected crash,
one injected timeout, and one unpicklable spec.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import pytest

from repro.datasets.paper_examples import bookstore_example, employee_example
from repro.discovery import (
    BatchPolicy,
    Scenario,
    discover_many,
)
from repro.deadline import check_deadline
from repro.discovery.batch import _group_by_pair
from repro.exceptions import ScenarioTimeout, WorkerCrashed


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
    and blows up when the worker parses the scenario's options."""
    return Scenario(
        scenario_id,
        example.source,
        example.target,
        example.correspondences,
        (("explode_on_contact", True),),
    )


def _unpicklable(scenario_id, example):
    """Spec that fails pickling with TypeError (a lock), yet runs fine.

    A lock rides along as an extra attribute on the frozen spec — the
    shape of real-world payloads (locks, open files) that raise
    ``TypeError`` instead of ``pickle.PicklingError``.
    """
    scenario = _good(scenario_id, example)
    object.__setattr__(scenario, "_sneaky_payload", threading.Lock())
    return scenario


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


class WorkerKillerScenario(Scenario):
    """Hard-exits when run inside a pool worker; succeeds serially."""

    def run(self):
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(13)
        return super().run()


def _slow(scenario_id, example):
    return SlowScenario(
        scenario_id, example.source, example.target, example.correspondences
    )


def _worker_killer(scenario_id, example):
    return WorkerKillerScenario(
        scenario_id, example.source, example.target, example.correspondences
    )


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------
class TestLateUnpicklableScenario:
    """The probe must cover every scenario, not just ``scenarios[0]``."""

    def test_falls_back_to_serial_with_note(self, bookstore, employee):
        scenarios = [
            _good("ok-1", bookstore),
            _good("ok-2", employee),
            _unpicklable("sneaky", bookstore),  # late: position 2, not 0
        ]
        batch = discover_many(scenarios, workers=2)
        assert batch.ok
        assert len(batch) == 3
        assert [sid for sid, _ in batch.results] == ["ok-1", "ok-2", "sneaky"]
        assert any(
            "sneaky" in note and "serial" in note for note in batch.notes
        )

    def test_non_picklingerror_exceptions_are_caught(self, bookstore):
        # A lock raises TypeError, not pickle.PicklingError; the batch
        # must still degrade instead of aborting.
        scenarios = [
            _good("ok", bookstore),
            _unpicklable("locked", bookstore),
        ]
        batch = discover_many(scenarios, workers=2)
        assert batch.ok
        assert any("TypeError" in note for note in batch.notes)

    def test_fail_policy_records_structured_failure(self, bookstore):
        scenarios = [
            _good("ok", bookstore),
            _unpicklable("locked", bookstore),
        ]
        batch = discover_many(
            scenarios, workers=2, policy=BatchPolicy(on_unpicklable="fail")
        )
        assert len(batch) == 1
        (failure,) = batch.failures
        assert failure.scenario_id == "locked"
        assert failure.error_type == "TypeError"
        assert "pickle" in failure.message

    def test_unpicklable_results_match_serial(self, bookstore, employee):
        scenarios = [
            _good("ok-1", bookstore),
            _unpicklable("locked", employee),
        ]
        parallel = discover_many(scenarios, workers=2)
        serial = discover_many(scenarios, workers=1)
        for (_, left), (_, right) in zip(serial.results, parallel.results):
            assert _tgds(left) == _tgds(right)


class TestContentIdentityGrouping:
    """Equal-but-distinct semantics objects must land in one group."""

    def test_rebuilt_example_shares_group(self):
        first = bookstore_example()
        second = bookstore_example()  # distinct objects, same content
        assert first.source is not second.source
        scenarios = [_good("a", first), _good("b", second)]
        groups = _group_by_pair(scenarios)
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_different_pairs_still_split(self, bookstore, employee):
        groups = _group_by_pair(
            [_good("a", bookstore), _good("b", employee)]
        )
        assert len(groups) == 2

    def test_positions_preserved(self, bookstore):
        scenarios = [_good("a", bookstore), _good("b", bookstore)]
        ((first, _), (second, _)) = _group_by_pair(scenarios)[0]
        assert (first, second) == (0, 1)


class TestInjectedWorkerException:
    def test_failure_is_structured_and_batch_completes(
        self, bookstore, employee
    ):
        scenarios = [
            _good("ok-1", bookstore),
            _crashing("boom", bookstore),
            _good("ok-2", employee),
        ]
        batch = discover_many(scenarios, workers=2)
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
        batch = discover_many(scenarios, workers=1)
        assert len(batch) == 1
        assert batch.failure_for("boom") is not None
        assert batch.result_for("ok") is not None

    def test_surviving_results_match_serial(self, bookstore, employee):
        scenarios = [
            _good("ok-1", bookstore),
            _crashing("boom", employee),
            _good("ok-2", employee),
        ]
        parallel = discover_many(scenarios, workers=2)
        serial = discover_many(scenarios, workers=1)
        assert [sid for sid, _ in parallel.results] == [
            sid for sid, _ in serial.results
        ]
        for (_, left), (_, right) in zip(serial.results, parallel.results):
            assert _tgds(left) == _tgds(right)

    def test_result_for_failed_id_raises_with_context(self, bookstore):
        batch = discover_many([_crashing("boom", bookstore)], workers=1)
        with pytest.raises(KeyError, match="ValueError"):
            batch.result_for("boom")
        with pytest.raises(KeyError):
            batch.result_for("never-submitted")


class TestScenarioTimeout:
    def test_serial_timeout_records_failure(self, bookstore):
        scenarios = [_slow("sleepy", bookstore), _good("ok", bookstore)]
        batch = discover_many(
            scenarios, workers=1, policy=BatchPolicy(timeout_seconds=0.3)
        )
        assert len(batch) == 1
        (failure,) = batch.failures
        assert failure.error_type == ScenarioTimeout.__name__
        assert "wall-clock" in failure.message
        assert 0.2 <= failure.elapsed_seconds < 5.0
        assert batch.stats["timeouts"] == 1

    def test_parallel_timeout_spares_the_rest(self, bookstore, employee):
        scenarios = [
            _good("ok-1", bookstore),
            _slow("sleepy", employee),
            _good("ok-2", employee),
        ]
        batch = discover_many(
            scenarios, workers=2, policy=BatchPolicy(timeout_seconds=0.5)
        )
        assert [sid for sid, _ in batch.results] == ["ok-1", "ok-2"]
        assert batch.failure_for("sleepy").error_type == (
            ScenarioTimeout.__name__
        )


class TestWorkerDeath:
    def test_dead_worker_group_is_retried_serially(self, bookstore, employee):
        scenarios = [
            _good("ok-1", bookstore),
            _worker_killer("killer", employee),
        ]
        batch = discover_many(scenarios, workers=2)
        # The killer succeeds on the serial retry in the parent process.
        assert batch.ok
        assert len(batch) == 2
        assert any("died" in note for note in batch.notes)
        assert batch.stats["retried"] >= 1

    def test_retries_zero_records_worker_crash(self, employee):
        scenarios = [
            _worker_killer("killer-1", employee),
            _worker_killer("killer-2", employee),
        ]
        batch = discover_many(scenarios, workers=2, policy=BatchPolicy(retries=0))
        assert len(batch) == 0
        assert len(batch.failures) == 2
        for failure in batch.failures:
            assert failure.error_type == WorkerCrashed.__name__
        assert batch.stats["worker_crashes"] == 2


class TestInputValidation:
    def test_duplicate_scenario_ids_rejected(self, bookstore):
        scenarios = [_good("twin", bookstore), _good("twin", bookstore)]
        with pytest.raises(ValueError, match="duplicate scenario_id"):
            discover_many(scenarios)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_seconds": 0},
            {"timeout_seconds": -1.5},
            {"retries": -1},
            {"on_unpicklable": "explode"},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Acceptance: the ISSUE's 20-scenario batch
# ---------------------------------------------------------------------------
class TestTwentyScenarioAcceptance:
    """20 scenarios, one crash, one timeout, one unpicklable spec:
    17 results byte-identical to serial, 3 structured failures."""

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
        scenarios.insert(17, _unpicklable("unpicklable", bookstore))
        assert len(scenarios) == 20
        policy = BatchPolicy(
            timeout_seconds=1.0, on_unpicklable="fail", retries=1
        )
        batch = discover_many(scenarios, workers=2, policy=policy)
        reference = discover_many(good, workers=1)
        return batch, reference

    def test_seventeen_results_match_serial_byte_for_byte(
        self, batch_and_reference
    ):
        batch, reference = batch_and_reference
        assert len(batch) == 17
        parallel_tgds = {
            sid: _tgds(result) for sid, result in batch.results
        }
        serial_tgds = {
            sid: _tgds(result) for sid, result in reference.results
        }
        assert parallel_tgds == serial_tgds

    def test_three_structured_failures(self, batch_and_reference):
        batch, _ = batch_and_reference
        assert len(batch.failures) == 3
        by_id = {failure.scenario_id: failure for failure in batch.failures}
        assert by_id["crash"].error_type == "ValueError"
        assert by_id["timeout"].error_type == ScenarioTimeout.__name__
        assert by_id["unpicklable"].error_type == "TypeError"
        assert "pickle" in by_id["unpicklable"].message

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
