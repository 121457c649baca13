"""The shared-computation performance layer.

Cross-cutting caches and instrumentation for the discovery pipeline:

* :mod:`repro.perf.counters` — named event counters, surfaced through
  ``DiscoveryResult.stats`` next to the per-span wall times of the
  run's :class:`repro.trace.Recorder`;
* :mod:`repro.perf.index` — immutable per-``CMGraph`` indexes with
  lazily cached distance-oracle tables.

Performance is measured outside the package, by ``bench/run.py`` (see
``bench/README.md``).

There is no switch that turns the caches off: every run takes the one
cached code path. Cold, warm and uncached runs are held equal by golden
outputs and by property tests against the uncached reference functions
(``_translate_uncached``, ``_functional_shortest_paths``,
``simple_paths``). A cache stays only while it saves measurable work;
see ``docs/performance.md`` for the architecture (cache keys, bounds,
index lifetimes, invalidation by immutability) and the ablation that
removed the others.
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.perf.counters": (
            "PerfCounters",
            "record",
            "scope",
        ),
        "repro.perf.index": ("GraphIndex",),
    },
)


def clear_caches() -> None:
    """Drop every process-wide cache of the perf layer.

    Benchmarks and tests call this to start a cold run; the per-object
    caches (the semantics-keyed translation memos) die with their
    owners. When a persistent cache directory is active
    (:mod:`repro.discovery.engine.persist`), its entries are cleared
    too — "clear the caches" must mean all tiers, or a stale disk
    artifact would silently resurrect what the caller just invalidated.
    """
    from repro.discovery import translate
    from repro.discovery.engine.cache import clear_stage_cache
    from repro.discovery.engine.persist import clear_active_store
    from repro.perf.index import GraphIndex
    from repro.queries.rewrite import clear_rewrite_caches

    GraphIndex.clear_registry()
    translate.clear_translation_cache()
    clear_stage_cache()
    clear_active_store()
    clear_rewrite_caches()
