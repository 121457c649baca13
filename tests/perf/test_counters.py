"""Unit tests for the stack-scoped perf counters."""

from __future__ import annotations

import threading
import time

from repro.perf import counters


def setup_function(_):
    counters.reset()


def test_record_hits_global_frame():
    counters.record("dijkstra_sweeps")
    counters.record("dijkstra_sweeps", 2)
    assert counters.global_counters().counts["dijkstra_sweeps"] == 3


def test_scope_isolates_and_still_feeds_global():
    with counters.scope() as frame:
        counters.record("translate_cache_hits")
    assert frame.counts["translate_cache_hits"] == 1
    assert counters.global_counters().counts["translate_cache_hits"] == 1
    with counters.scope() as second:
        pass
    assert second.counts["translate_cache_hits"] == 0


def test_nested_scopes_both_count():
    with counters.scope() as outer:
        with counters.scope() as inner:
            counters.record("translate_cache_hits")
    assert inner.counts["translate_cache_hits"] == 1
    assert outer.counts["translate_cache_hits"] == 1


def test_concurrent_scopes_are_thread_confined():
    """Regression: the frame stack was process-global, so two threads'
    scopes counted each other's events."""
    barrier = threading.Barrier(2)
    frames: dict[str, counters.PerfCounters] = {}

    def run(name: str) -> None:
        with counters.scope() as frame:
            barrier.wait(timeout=10)
            for _ in range(500):
                counters.record(f"evt_{name}")
            barrier.wait(timeout=10)  # keep both scopes open together
        frames[name] = frame

    threads = [
        threading.Thread(target=run, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert frames["a"].counts["evt_a"] == 500
    assert frames["a"].counts["evt_b"] == 0
    assert frames["b"].counts["evt_b"] == 500
    assert frames["b"].counts["evt_a"] == 0
    root = counters.global_counters()
    assert root.counts["evt_a"] == 500
    assert root.counts["evt_b"] == 500


def test_root_snapshot_safe_during_concurrent_inserts():
    """Regression: snapshotting the root while another thread inserted
    new counter keys raised ``RuntimeError: dictionary changed size
    during iteration``."""
    stop = threading.Event()
    failures: list[BaseException] = []

    def insert_new_keys() -> None:
        try:
            index = 0
            while not stop.is_set():
                counters.record(f"churn_{index}")
                index += 1
        except BaseException as error:  # pragma: no cover - failure path
            failures.append(error)

    thread = threading.Thread(target=insert_new_keys)
    thread.start()
    try:
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            snapshot = counters.global_counters().snapshot()
            assert isinstance(snapshot, dict)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not failures
