"""Named event counters for the discovery pipeline.

This module counts; it does not time. Wall time has one clock, the
run's span recorder (:class:`repro.trace.Recorder`), which supplies the
``time_<name>_s`` and ``self_<name>_s`` keys of
``DiscoveryResult.stats``; the counters below supply the rest.

Counters are recorded into a stack of *frames*: :func:`scope` pushes a
fresh frame onto the **calling thread's** stack, so one ``discover()``
call (or one batch run) reports exactly the events it caused even when
other threads — e.g. the ``repro.service`` worker pool — are running
their own scoped discoveries concurrently. Recording walks the calling
thread's stack (at most a few frames deep), so the hot-path cost stays
at a few dict increments and takes no lock. An event recorded outside
every scope is counted nowhere.

Frames are thread-confined: a frame only ever sees events recorded by
the thread that opened the scope, so no frame needs a lock. Totals
across runs are the caller's to keep (the service's ``/metrics`` sums
each run's ``DiscoveryResult.stats``).

Counter names used across the codebase:

``dijkstra_sweeps``
    targeted shortest-path sweeps of the functional-tree search;
``tied_paths_dropped``
    tied shortest paths truncated by ``MAX_TIED_PATHS`` (satellite:
    truncation is no longer silent);
``tree_combinations_dropped``
    combinations of tied paths (one per target) that the functional-tree
    search left untried past ``MAX_TREE_COMBINATIONS`` (a product of
    exactly the cap is whole and not counted);
``rewrite_limit_hits``
    ``rewrite_query`` calls whose enumeration stopped at its ``limit``
    with rule combinations still untried (one that ends exactly at the
    cap is whole and not counted);
``chase_depth_hits``
    atoms the inclusion-dependency chase (``ChaseEngine.chase``) left
    at its ``max_depth`` with a dependency still unsatisfied, i.e. a
    truncated chase (an atom at the bound with nothing left to add is
    not counted);
``lossy_paths_expanded``, ``lossy_paths_pruned``
    branch-and-bound search effort in ``minimally_lossy_paths``;
``translate_cache_*``
    CSG → table-query translation memo traffic;
``stage_cache_hits``, ``stage_cache_misses``
    staged-engine artifact cache traffic in aggregate (see
    :mod:`repro.discovery.engine.cache`);
``stage_cache_hit_<stage>``, ``stage_cache_miss_<stage>``
    the same traffic broken down by entry kind: ``rank`` (a whole
    run), ``source_search.unit`` (the fused block's per-target units)
    and ``clio`` (the baseline engine);
``oracle_sweeps``, ``oracle_cache_hits``, ``oracle_cache_misses``
    distance-oracle table computations (backward Dijkstra sweeps) vs
    :class:`GraphIndex` oracle-table hits;
``astar_expansions``, ``bound_prunes``
    nodes expanded vs nodes cut by the oracle's admissible bounds in
    the targeted Steiner search and the lossy branch-and-bound;
``lossy_prefix_skips``
    lossy path prefixes rejected by the monotone consistency check
    before full enumeration;
``required_subtree_prunes``
    rewrite DFS subtrees skipped because no downstream rule choice
    could mention a required table.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from typing import Iterator


class PerfCounters:
    """One frame of named counters, confined to the thread that opened it."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def snapshot(self) -> dict[str, int]:
        """A JSON-friendly view of the counters, sorted by name."""
        return {
            name: int(value) for name, value in sorted(self.counts.items())
        }

    def __repr__(self) -> str:
        return f"PerfCounters({dict(self.counts)})"


_SCOPES = threading.local()


def _scope_stack() -> list[PerfCounters]:
    """The calling thread's stack of active scoped frames."""
    stack = getattr(_SCOPES, "stack", None)
    if stack is None:
        stack = []
        _SCOPES.stack = stack
    return stack


def record(name: str, amount: int = 1) -> None:
    """Increment ``name`` in every active frame of this thread."""
    for frame in _scope_stack():
        frame.counts[name] += amount


@contextmanager
def scope() -> Iterator[PerfCounters]:
    """Push a fresh frame on this thread's stack; yields it for snapshots."""
    frame = PerfCounters()
    stack = _scope_stack()
    stack.append(frame)
    try:
        yield frame
    finally:
        stack.remove(frame)
