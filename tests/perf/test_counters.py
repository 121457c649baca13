"""Unit tests for the stack-scoped perf counters."""

from __future__ import annotations

import threading

from repro.perf import counters


def test_record_hits_active_scope():
    with counters.scope() as frame:
        counters.record("dijkstra_sweeps")
        counters.record("dijkstra_sweeps", 2)
    assert frame.counts["dijkstra_sweeps"] == 3
    assert frame.snapshot() == {"dijkstra_sweeps": 3}


def test_scopes_are_isolated():
    with counters.scope() as frame:
        counters.record("translate_cache_hits")
    assert frame.counts["translate_cache_hits"] == 1
    with counters.scope() as second:
        pass
    assert second.counts["translate_cache_hits"] == 0


def test_record_outside_every_scope_counts_nowhere():
    counters.record("translate_cache_hits")
    with counters.scope() as frame:
        pass
    assert frame.snapshot() == {}


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
