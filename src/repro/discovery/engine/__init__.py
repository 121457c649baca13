"""The staged discovery engine: fingerprinted stages + content-addressed cache.

This package factors the discovery pipeline into explicit stages —
:data:`~repro.discovery.engine.stages.STAGE_NAMES` — each with a
content-addressed input fingerprint. ``SemanticMapper`` delegates here;
the engine owns the stage graph, the span vocabulary (derived from
``STAGE_NAMES``), the bounded LRU :class:`StageCache` of whole-run
:class:`RankedResult` entries, and the per-target
:class:`SourceSearchUnit` reuse that makes incremental re-discovery
(:func:`repro.discovery.incremental.rediscover`) cheap.

See ``docs/architecture.md`` for the stage graph and caching rules.
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.discovery.engine.artifacts": (
            "RankedResult",
            "SourceSearchUnit",
        ),
        "repro.discovery.engine.cache": (
            "StageCache",
            "clear_stage_cache",
            "stage_cache",
        ),
        "repro.discovery.engine.persist": (
            "STORE_VERSION",
            "PersistentStageStore",
            "active_store",
            "cache_dir_override",
            "clear_active_store",
            "configure as configure_persistence",
            "store_for",
        ),
        "repro.discovery.engine.stages": (
            "CLIO_STAGE_NAMES",
            "STAGE_NAMES",
            "STAGE_OPTION_FIELDS",
            "EngineOutcome",
            "SemanticEngine",
        ),
    },
)
