"""Batch timeouts stop a real discovery wherever it runs.

``discover_many``'s ``timeout_seconds`` is a cooperative deadline
(:mod:`repro.deadline`): discovery's searches check it at their loop
heads, so it needs neither a signal nor the main thread. A cold
``chain@510`` discovery runs for over a second unbounded; under a 0.3 s
limit it must stop within 0.5 s of the limit on the main thread, on a
worker thread and in a service compute process alike.
"""

import threading
import time

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.datasets.paper_examples import bookstore_example
from repro.discovery.batch import Scenario, discover_many
from repro.exceptions import ScenarioTimeout
from tests.compute_pool import run_in_compute_pool

LIMIT = 0.3
#: How far past its limit a stopped run may end.
SLACK = 0.5


@pytest.fixture
def slow_scenario():
    """A cold ``chain@510`` run: its searches take well over ``LIMIT``.

    Fresh objects per test and cleared process-wide caches, so no run
    starts on memos an earlier one left behind.
    """
    _, (source, target, correspondences) = synthetic.scale_point("chain", 510)
    perf.clear_caches()
    return Scenario.create("chain@510", source, target, correspondences)


def _bookstore(scenario_id):
    example = bookstore_example()
    return Scenario.create(
        scenario_id, example.source, example.target, example.correspondences
    )


def _assert_stopped_in_time(failure, wall_seconds=None):
    assert failure.error_type == ScenarioTimeout.__name__
    assert f"{LIMIT}s wall-clock limit" in failure.message
    assert failure.elapsed_seconds < LIMIT + SLACK
    if wall_seconds is not None:
        assert wall_seconds < LIMIT + SLACK


def _assert_batch_stopped_in_time(batch, wall_seconds):
    _assert_stopped_in_time(batch.failure_for("chain@510"), wall_seconds)
    assert batch.stats["timeouts"] == 1


def _on_thread(run):
    outcome = {}
    thread = threading.Thread(target=lambda: outcome.update(run()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return outcome


class TestThreadContextTimeouts:
    def test_main_thread_is_stopped(self, slow_scenario):
        assert threading.current_thread() is threading.main_thread()
        start = time.perf_counter()
        batch = discover_many([slow_scenario], timeout_seconds=LIMIT)
        _assert_batch_stopped_in_time(batch, time.perf_counter() - start)

    def test_worker_thread_is_stopped(self, slow_scenario):
        def run():
            start = time.perf_counter()
            batch = discover_many([slow_scenario], timeout_seconds=LIMIT)
            return {"batch": batch, "wall": time.perf_counter() - start}

        outcome = _on_thread(run)
        _assert_batch_stopped_in_time(outcome["batch"], outcome["wall"])

    def test_pool_worker_is_stopped(self, slow_scenario):
        outcomes = run_in_compute_pool(
            [slow_scenario, _bookstore("ok")], timeout_seconds=LIMIT
        )
        kind, failure = outcomes["chain@510"]
        assert kind == "error"
        _assert_stopped_in_time(failure)
        assert outcomes["ok"][0] == "ok"

    def test_no_timeout_runs_to_end(self):
        outcome = _on_thread(
            lambda: {"batch": discover_many([_bookstore("untimed")])}
        )
        batch = outcome["batch"]
        assert not batch.failures
        (scenario_id, result), = batch.results
        assert scenario_id == "untimed"
        assert result.candidates
