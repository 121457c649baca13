"""Global switch and sizing knobs for the shared-computation layer.

Every cache in the performance layer (graph indexes, shortest-path
tables, consistency memos, translation memos, the staged engine's stage
cache) consults :func:`enabled` before reading or writing. Disabling the
layer — typically via the :func:`disabled` context manager — restores
the seed behaviour where every ``discover()`` call recomputes from
scratch, which is what the equivalence tests and the cold-baseline
benchmarks compare against.

Cache *sizes* are owned here too. Each memo cache has a module default
(:data:`DEFAULT_CACHE_SIZES`) and consults :func:`cache_size` at its
bound check, so a run can override a size without touching the cache
module: :class:`~repro.discovery.options.DiscoveryOptions` carries
``profile_cache_size`` / ``translation_cache_size`` /
``stage_cache_size`` fields (``None`` = keep the default, so default
options still serialise to ``()`` and existing scenario fingerprints
stay stable), and ``SemanticMapper.discover`` installs them for the
run's dynamic extent via :func:`cache_size_overrides`. Overrides are
contextvar-scoped: concurrent service jobs with different sizing never
see each other's values.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_ENABLED = True

#: Default entry bounds per cache, by the name each cache passes to
#: :func:`cache_size`. ``None`` means unbounded (the translation memo is
#: per-semantics and dies with its owner, so it defaults to unbounded).
DEFAULT_CACHE_SIZES: dict[str, int | None] = {
    "profile": 8192,
    "translation": None,
    "stage": 512,
}

_SIZE_OVERRIDES: ContextVar[tuple[tuple[str, int], ...]] = ContextVar(
    "repro_perf_cache_size_overrides", default=()
)

#: Contextvar gate for the distance-oracle search guidance (backward
#: distance tables, A*-pruned Dijkstra, lossy lower bounds). Defaults to
#: on; ``DiscoveryOptions.distance_oracle`` installs a per-run override.
_DISTANCE_ORACLE: ContextVar[bool] = ContextVar(
    "repro_perf_distance_oracle", default=True
)


def enabled() -> bool:
    """Whether the shared-computation caches are active."""
    return _ENABLED


def distance_oracle_enabled() -> bool:
    """Whether oracle-guided search (A* pruning, lossy bounds) is active.

    Follows the global perf switch: with the layer disabled the search
    runs the seed code path, blind expansion included. Both modes are
    output-equivalent — the oracle only prunes work that provably cannot
    contribute to the result.
    """
    return _ENABLED and _DISTANCE_ORACLE.get()


@contextmanager
def distance_oracle(active: bool) -> Iterator[None]:
    """Override the distance-oracle gate for the block's dynamic extent."""
    token = _DISTANCE_ORACLE.set(bool(active))
    try:
        yield
    finally:
        _DISTANCE_ORACLE.reset(token)


def set_enabled(value: bool) -> None:
    global _ENABLED
    _ENABLED = bool(value)


@contextmanager
def disabled() -> Iterator[None]:
    """Run a block with every perf cache bypassed (the seed code path)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def cache_size(name: str) -> int | None:
    """The effective entry bound of cache ``name`` in this context.

    ``None`` means unbounded; ``0`` (meaningful only for the stage
    cache) disables the cache for the current run.
    """
    for key, value in _SIZE_OVERRIDES.get():
        if key == name:
            return value
    return DEFAULT_CACHE_SIZES.get(name)


@contextmanager
def cache_size_overrides(**sizes: int) -> Iterator[None]:
    """Install per-cache entry bounds for the block's dynamic extent.

    Merges over any outer overrides; unknown names are accepted (a
    cache that never consults them simply never sees them).
    """
    merged = dict(_SIZE_OVERRIDES.get())
    merged.update(sizes)
    token = _SIZE_OVERRIDES.set(tuple(sorted(merged.items())))
    try:
        yield
    finally:
        _SIZE_OVERRIDES.reset(token)
