"""The bounded LRU stage cache behind incremental re-discovery.

One process-wide :class:`StageCache` holds the staged engine's
content-addressed artifacts, keyed by ``(stage name, fingerprint)``.
The engine stores two kinds (see
:mod:`repro.discovery.engine.artifacts`): a whole run's ``RankedResult``
under ``rank`` (``clio`` for the baseline engine) and a per-target
``SourceSearchUnit`` under ``source_search.unit``. Because fingerprints
cover *content* — semantics, correspondences, and the options subset
each stage reads — the cache is safely shared across scenarios, threads
(service job workers), and repeated ``discover()`` calls: a hit can
only ever return the artifact the stage would have recomputed.

The cache holds at most :data:`STAGE_CACHE_SIZE` artifacts and evicts
the least recently used first. Its traffic lands in the perf counters
(``stage_cache_hits`` / ``stage_cache_misses`` plus per-stage
``stage_cache_hit_<stage>`` breakdowns), and ``perf.clear_caches()``
drops it alongside the other process-wide caches.

When a cache directory is active (``DiscoveryOptions(cache_dir=...)``,
``persist.configure``, or ``REPRO_CACHE_DIR`` — see
:mod:`repro.discovery.engine.persist`), the cache gains a disk tier: a
memory miss falls through to the content-addressed store (a disk hit is
promoted into memory and counted as ``stage_cache_disk_hit_<stage>``),
and every ``put`` writes through so other processes — CLI runs, batch
workers, pre-fork service siblings — can start warm.

Thread-safety: a single lock guards the ordered map. Artifacts are
frozen dataclasses of immutable payloads, so returning a shared
reference is safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.discovery.engine import persist
from repro.perf import counters as perf_counters


#: Entry bound of the process-wide stage cache.
STAGE_CACHE_SIZE = 512


class StageCache:
    """A thread-safe LRU map from ``(stage, fingerprint)`` to artifacts."""

    def __init__(self, capacity: int = STAGE_CACHE_SIZE) -> None:
        self._capacity = capacity
        self._entries: "OrderedDict[tuple[str, str], Any]" = OrderedDict()
        self._lock = threading.Lock()

    def _shrink(self) -> None:
        """Evict LRU entries down to capacity (caller holds the lock)."""
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def get(self, stage: str, fingerprint: str) -> Any | None:
        """The cached artifact, or ``None``; counts hit/miss traffic.

        On a memory miss, the persistent disk tier (when active) is
        consulted; a disk hit is promoted into memory.
        """
        key = (stage, fingerprint)
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
        if artifact is not None:
            perf_counters.record("stage_cache_hits")
            perf_counters.record(f"stage_cache_hit_{stage}")
            return artifact
        store = persist.active_store()
        if store is not None and self._capacity > 0:
            artifact = store.get(stage, fingerprint)
            if artifact is not None:
                with self._lock:
                    self._entries[key] = artifact
                    self._entries.move_to_end(key)
                    self._shrink()
                perf_counters.record("stage_cache_disk_hits")
                perf_counters.record(f"stage_cache_disk_hit_{stage}")
                return artifact
            perf_counters.record("stage_cache_disk_misses")
        perf_counters.record("stage_cache_misses")
        perf_counters.record(f"stage_cache_miss_{stage}")
        return None

    def put(self, stage: str, fingerprint: str, artifact: Any) -> None:
        if self._capacity <= 0:
            return
        key = (stage, fingerprint)
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            self._shrink()
        store = persist.active_store()
        if store is not None:
            store.put(stage, fingerprint, artifact)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Current occupancy by stage name (diagnostics, not metrics)."""
        with self._lock:
            per_stage: dict[str, int] = {}
            for stage, _ in self._entries:
                per_stage[stage] = per_stage.get(stage, 0) + 1
            per_stage["entries"] = len(self._entries)
        return per_stage

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The process-wide stage cache shared by every engine run.
_SHARED = StageCache()


def stage_cache() -> StageCache:
    """The shared process-wide :class:`StageCache`."""
    return _SHARED


def clear_stage_cache() -> None:
    """Drop every cached stage artifact (see ``repro.perf.clear_caches``)."""
    _SHARED.clear()
