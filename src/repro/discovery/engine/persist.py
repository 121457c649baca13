"""The disk-backed, content-addressed stage-artifact store.

This is the persistence tier under the in-memory caches: the engine's
:class:`~repro.discovery.engine.cache.StageCache` and the service's
:class:`~repro.service.cache.ResultCache` both key on
``(stage, fingerprint)`` pairs whose fingerprints cover *content* — so a
cached artifact is valid for any process, on any day, as long as the
code that wrote it still produces the same artifact for the same
fingerprint. :class:`PersistentStageStore` turns that property into
shared warm state: CLI runs, ``discover_many`` workers, the service's
compute processes, and restarts all read and write one directory of
fingerprint-named entry files.

Durability and correctness rules (production posture):

* **Atomic writes.** Every entry is written to a ``tempfile`` in the
  destination directory and published with ``os.replace`` — readers
  never observe a half-written entry, and two processes racing to write
  the same fingerprint both leave a complete entry behind (last replace
  wins; both are correct by content-addressing).
* **Versioned entries.** Every entry embeds
  ``(STORE_FORMAT, STORE_VERSION, stage, fingerprint)``; an entry
  written by an older/newer store format, or landing under the wrong
  path, reads as a miss — never as a wrong artifact.
* **Corruption degrades to a miss.** Truncated, garbage, or unpicklable
  entry files return ``None`` (counted in
  ``stage_cache_disk_errors``), and the engine recomputes and
  overwrites them. The store must never turn a bad disk into a crash.

Activation: the store is off unless a cache directory is named — by
``DiscoveryOptions(cache_dir=...)`` (a per-run contextvar override, see
:func:`cache_dir_override`), by :func:`configure` (process-wide: the
service and CLI install their ``--cache-dir`` here), or by the
``REPRO_CACHE_DIR`` environment variable (lowest precedence; how batch
workers and CI jobs inherit one). ``repro.perf.clear_caches()``
clears the active store along with the in-memory tiers.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any, Iterator

from repro.perf import counters as perf_counters

#: Magic string stamped into every entry file.
STORE_FORMAT = "repro-stage-store"

#: Bump on any change that invalidates previously written artifacts
#: (artifact dataclass shape, fingerprint conventions, pickling layout).
#: Entries carrying a different version read as misses. Version 3: the
#: input value objects (``CMEdge``, ``Cardinality``, ``Column``,
#: ``STreeNode``, ``STreeEdge``, ...) became slotted dataclasses, whose
#: generated ``__setstate__`` zips field names against a version-2 dict
#: state and so would load a wrong object without raising. Version 4:
#: ``ConjunctiveQuery``, ``InverseRule`` and ``LAVView`` became slotted
#: and pickle a tuple state where version 3 pickled an instance dict.
#: Version 5: ``RankedResult`` and ``SourceSearchUnit`` lost their
#: unread fields (``fingerprint``; the unit's ``target_csg``,
#: ``considered`` and ``pairs``), and only those two kinds are stored.
STORE_VERSION = 5

#: Environment variable naming a default cache directory (lowest
#: precedence; see :func:`active_cache_dir`).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: File suffix of entry files (anything else in the tree is ignored).
ENTRY_SUFFIX = ".entry"


def _safe_segment(name: str) -> str:
    """A filesystem-safe directory segment for a stage name.

    Collisions (``a.b`` vs ``a_b``) are harmless: the entry header
    records the true stage name and :meth:`PersistentStageStore.get`
    verifies it, so a colliding read degrades to a miss.
    """
    return "".join(
        ch if ch.isalnum() or ch in "_-" else "_" for ch in name
    ) or "_"


class PersistentStageStore:
    """One cache directory of ``(stage, fingerprint)`` entry files.

    Layout: ``<root>/<stage>/<fp[:2]>/<fp>.entry`` — the two-hex-char
    shard keeps directories small under millions of entries. Instances
    are cheap; :func:`store_for` keeps one per resolved directory.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_path(self, stage: str, fingerprint: str) -> Path:
        shard = fingerprint[:2] if len(fingerprint) >= 2 else "__"
        return (
            self.root
            / _safe_segment(stage)
            / shard
            / f"{fingerprint}{ENTRY_SUFFIX}"
        )

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def get(self, stage: str, fingerprint: str) -> Any | None:
        """The stored artifact, or ``None`` (absent/corrupt/stale-format).

        Never raises for a bad entry: any failure to read, unpickle, or
        validate is counted (``stage_cache_disk_errors``) and reported
        as a miss, so callers recompute and overwrite.
        """
        path = self.entry_path(stage, fingerprint)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            perf_counters.record("stage_cache_disk_errors")
            return None
        try:
            entry = pickle.loads(raw)
            fmt, version, entry_stage, entry_fp, artifact = entry
        except Exception:
            # Truncated write, garbage bytes, or an artifact class this
            # code no longer defines — all equally "not a cache entry".
            perf_counters.record("stage_cache_disk_errors")
            return None
        if (
            fmt != STORE_FORMAT
            or version != STORE_VERSION
            or entry_stage != stage
            or entry_fp != fingerprint
        ):
            perf_counters.record("stage_cache_disk_stale")
            return None
        return artifact

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def put(self, stage: str, fingerprint: str, artifact: Any) -> bool:
        """Atomically publish one entry; ``False`` on any failure.

        The payload is staged in a ``tempfile`` in the destination
        directory and moved into place with ``os.replace``, so
        concurrent writers (threads or processes) can never leave a
        torn entry — the loser of the race simply overwrites the winner
        with an identical-by-content artifact.
        """
        try:
            payload = pickle.dumps(
                (STORE_FORMAT, STORE_VERSION, stage, fingerprint, artifact),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            perf_counters.record("stage_cache_disk_write_errors")
            return False
        path = self.entry_path(stage, fingerprint)
        tmp_name: str | None = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-", dir=str(path.parent)
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
                tmp_name = None
            finally:
                if tmp_name is not None:
                    os.unlink(tmp_name)
        except OSError:
            perf_counters.record("stage_cache_disk_write_errors")
            return False
        perf_counters.record("stage_cache_disk_writes")
        return True

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry file; returns how many were removed.

        Leaves the directory tree in place (other processes may hold
        it open as their cache dir) and ignores races with concurrent
        writers — an entry published mid-clear simply survives.
        """
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def stats(self) -> dict[str, int]:
        """Entry counts by stage directory plus a total (diagnostics)."""
        per_stage: dict[str, int] = {}
        total = 0
        for path in self._entry_files():
            stage_dir = path.parent.parent.name
            per_stage[stage_dir] = per_stage.get(stage_dir, 0) + 1
            total += 1
        per_stage["entries"] = total
        return per_stage

    def _entry_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        yield from self.root.glob(f"*/*/*{ENTRY_SUFFIX}")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())


# ---------------------------------------------------------------------------
# Active-store resolution
# ---------------------------------------------------------------------------
_CONFIGURED_DIR: str | None = None

_OVERRIDE_DIR: ContextVar[str | None] = ContextVar(
    "repro_persist_cache_dir", default=None
)

_STORES: dict[str, PersistentStageStore] = {}
_STORES_LOCK = threading.Lock()


def configure(cache_dir: str | os.PathLike | None) -> None:
    """Install (or with ``None``, remove) the process-wide cache dir.

    The service and the CLI put their ``--cache-dir`` here so every
    discovery in the process — including job-queue worker threads —
    shares the disk tier without per-call plumbing.
    """
    global _CONFIGURED_DIR
    _CONFIGURED_DIR = None if cache_dir is None else str(cache_dir)


def configured_dir() -> str | None:
    """The process-wide cache dir installed by :func:`configure`."""
    return _CONFIGURED_DIR


@contextmanager
def cache_dir_override(
    cache_dir: str | os.PathLike | None,
) -> Iterator[None]:
    """Use ``cache_dir`` for the block's dynamic extent.

    This is how ``DiscoveryOptions(cache_dir=...)`` activates the disk
    tier for one run: contextvar-scoped, so concurrent service jobs
    with different settings never see each other's directory.
    """
    token = _OVERRIDE_DIR.set(
        None if cache_dir is None else str(cache_dir)
    )
    try:
        yield
    finally:
        _OVERRIDE_DIR.reset(token)


def active_cache_dir() -> str | None:
    """The cache dir in effect: override > configured > environment."""
    override = _OVERRIDE_DIR.get()
    if override is not None:
        return override
    if _CONFIGURED_DIR is not None:
        return _CONFIGURED_DIR
    return os.environ.get(CACHE_DIR_ENV) or None


def store_for(cache_dir: str | os.PathLike) -> PersistentStageStore:
    """The (shared) store instance for ``cache_dir``."""
    key = str(Path(cache_dir))
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = PersistentStageStore(key)
            _STORES[key] = store
        return store


def active_store() -> PersistentStageStore | None:
    """The store for the active cache dir, or ``None`` when disabled."""
    cache_dir = active_cache_dir()
    if cache_dir is None:
        return None
    return store_for(cache_dir)


def clear_active_store() -> None:
    """Drop every entry of the active store (``perf.clear_caches``)."""
    store = active_store()
    if store is not None:
        store.clear()
