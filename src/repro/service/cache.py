"""Content-addressed result cache: LRU + TTL over scenario fingerprints.

Keys are :func:`repro.discovery.batch.scenario_fingerprint` digests, so
the cache is addressed by what a scenario *is* (schemas, model, s-trees,
correspondences, mapper options), never by what it is called — two
requests that ship the same content under different scenario ids share
one entry, and any change to the content changes the key. Combined with
the perf layer's guarantee that caching never changes results, a hit is
always byte-identical to what a fresh run would have produced.

Entries expire two ways: least-recently-used eviction once
``max_entries`` is reached, and a wall-clock TTL (``ttl_seconds``) that
bounds how long a result can be served after it was computed. Expiry is
enforced everywhere an entry is observable — ``get``, ``__contains__``,
and ``stats()["entries"]`` all treat an expired entry as absent — and an
amortized sweep in ``put`` reclaims expired entries from the cold end of
the LRU order, so skewed access patterns cannot pin dead payloads in
memory indefinitely.

A payload is an :class:`EncodedResult`: the finished result as the
sorted-key JSON bytes it was encoded to once, where it was computed.
The same bytes are stored, sent down the compute pipe and spliced into
every response, so no hit re-encodes anything.

With a ``store`` attached (the disk tier of
:mod:`repro.discovery.engine.persist`), results are written through to a
cache directory as ``(epoch, bytes)`` and a memory miss falls back to
it, so a restarted server serves what an earlier one computed. The
epoch store time makes the TTL meaningful across processes (monotonic
clocks are process-local). An entry of any other shape, such as the
dict payload of an older layout, reads as a miss.

All operations are thread-safe; the service's handler threads and job
workers share one instance.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.discovery.engine.persist import PersistentStageStore

#: The persistent store's "stage" name for service result payloads —
#: result entries share the cache directory with engine artifacts but
#: live under their own keyspace.
RESULT_STAGE = "service.result"

#: How many cold-end entries one ``put`` probes for expiry. Amortized:
#: hot traffic keeps live entries at the warm end, so expired entries
#: accumulate exactly where the sweep looks.
SWEEP_PROBES = 16


class EncodedResult(Mapping):
    """A finished discovery result as its sorted-key JSON bytes.

    ``raw`` is ``json.dumps(result_to_wire(result), sort_keys=True)``
    encoded once; the HTTP handler writes it into a response as it
    stands. In-process readers get the JSON object through this
    read-only mapping, decoded on each access: nothing decoded is kept.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: bytes) -> None:
        self.raw = raw

    def _decoded(self) -> dict[str, Any]:
        return json.loads(self.raw)

    def __getitem__(self, key: str) -> Any:
        return self._decoded()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._decoded())

    def __len__(self) -> int:
        return len(self._decoded())

    def __repr__(self) -> str:
        return f"EncodedResult({len(self.raw)} bytes)"


class ResultCache:
    """A bounded, thread-safe LRU + TTL map of fingerprint → result.

    Parameters
    ----------
    max_entries:
        Capacity; ``0`` disables the cache entirely (every ``get`` is a
        miss and ``put`` is a no-op).
    ttl_seconds:
        Maximum age of a served entry; ``None`` disables expiry.
    clock:
        Injectable monotonic clock (tests pass a fake).
    store:
        Optional persistent tier (see
        :class:`repro.discovery.engine.persist.PersistentStageStore`):
        ``put`` writes through, a memory miss reads through, restarts
        share the directory.
    epoch_clock:
        Injectable wall clock for disk-entry timestamps (defaults to
        ``time.time``; disk TTLs must be comparable across processes).
    """

    def __init__(
        self,
        max_entries: int = 256,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        store: "PersistentStageStore | None" = None,
        epoch_clock: Callable[[], float] = time.time,
    ) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._epoch_clock = epoch_clock
        self._store = store
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[float, EncodedResult]] = (
            OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._disk_hits = 0
        self._disk_misses = 0

    # ------------------------------------------------------------------
    # Expiry plumbing
    # ------------------------------------------------------------------
    def _expired(self, stored_at: float) -> bool:
        return (
            self.ttl_seconds is not None
            and self._clock() - stored_at > self.ttl_seconds
        )

    def _sweep_expired(self) -> None:
        """Drop expired entries from the LRU cold end (lock held).

        Probes at most :data:`SWEEP_PROBES` least-recently-used entries
        per call — O(1) amortized — and stops at the first live one:
        anything warmer was touched more recently, and ``get`` already
        expires entries it touches.
        """
        if self.ttl_seconds is None:
            return
        for _ in range(min(SWEEP_PROBES, len(self._entries))):
            key = next(iter(self._entries), None)
            if key is None:
                return
            stored_at, _ = self._entries[key]
            if not self._expired(stored_at):
                return
            del self._entries[key]
            self._expirations += 1

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> EncodedResult | None:
        """The result stored under ``key``, or ``None`` (miss/expired)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_at, payload = entry
                if self._expired(stored_at):
                    del self._entries[key]
                    self._expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return payload
            self._misses += 1
        return self._get_from_store(key)

    def _get_from_store(self, key: str) -> EncodedResult | None:
        """Disk-tier fallback after a memory miss (lock not held)."""
        if self._store is None or self.max_entries == 0:
            return None
        entry = self._store.get(RESULT_STAGE, key)
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not isinstance(entry[1], bytes)
        ):
            # Absent, or another shape (an older layout): a miss.
            with self._lock:
                self._disk_misses += 1
            return None
        stored_epoch, raw = entry
        age = max(0.0, self._epoch_clock() - float(stored_epoch))
        if self.ttl_seconds is not None and age > self.ttl_seconds:
            with self._lock:
                self._disk_misses += 1
            return None
        payload = EncodedResult(raw)
        with self._lock:
            # Promote with the original age so the TTL keeps counting
            # from when the result was computed, not when it was read.
            self._entries[key] = (self._clock() - age, payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._disk_hits += 1
        return payload

    def put(self, key: str, payload: EncodedResult) -> None:
        """Store ``payload`` under ``key``, evicting the LRU tail.

        Also runs the amortized expiry sweep (TTL-dead entries are
        reclaimed even if their keys are never ``get``-touched again)
        and writes through to the persistent store when one is attached.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            self._sweep_expired()
            self._entries[key] = (self._clock(), payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
        if self._store is not None:
            self._store.put(
                RESULT_STAGE, key, (self._epoch_clock(), payload.raw)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int | float]:
        """Counters for the metrics endpoint (store-level hits/misses).

        ``entries`` counts only TTL-live entries — an expired payload
        still awaiting its sweep must not inflate the hit-rate math on
        ``/metrics``.
        """
        with self._lock:
            live = sum(
                1
                for stored_at, _ in self._entries.values()
                if not self._expired(stored_at)
            )
            return {
                "entries": live,
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "expirations": self._expirations,
                "disk_hits": self._disk_hits,
                "disk_misses": self._disk_misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        """TTL-aware membership: an expired entry is already gone."""
        with self._lock:
            entry = self._entries.get(key)  # type: ignore[arg-type]
            if entry is None:
                return False
            stored_at, _ = entry
            return not self._expired(stored_at)
