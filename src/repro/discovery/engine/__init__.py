"""The staged discovery engine: typed artifacts + content-addressed cache.

This package factors the discovery pipeline into explicit stages —
:data:`~repro.discovery.engine.stages.STAGE_NAMES` — each producing a
typed, frozen artifact stamped with a content-addressed fingerprint.
``SemanticMapper`` delegates here; the engine owns the stage graph, the
perf phase / trace span vocabulary (both derive from ``STAGE_NAMES``),
the bounded LRU :class:`StageCache`, and the per-target
:class:`SourceSearchUnit` reuse that makes incremental re-discovery
(:func:`repro.discovery.incremental.rediscover`) cheap.

See ``docs/architecture.md`` for the stage graph and caching rules.
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.discovery.engine.artifacts": (
            "CompatiblePairs",
            "LiftedCorrespondences",
            "PairRecord",
            "RankedResult",
            "SourceCSGSet",
            "SourceSearchUnit",
            "TargetCSGSet",
            "TranslatedCandidates",
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
