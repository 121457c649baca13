"""The Clio/RIC baseline as a single-stage engine.

``DiscoveryOptions(engine="clio")`` routes a discovery run through the
schema-only baseline (:class:`repro.baseline.clio.RICBasedMapper`)
behind the *same* unified entry points as the semantic engine — library
``discover()``, batch, CLI (``--engine clio``), and the service wire
format (``{"options": {"engine": "clio"}}``). The baseline itself is
reused unchanged; this module only adapts it to the engine protocol: one
``clio`` stage (:data:`~repro.discovery.engine.stages.CLIO_STAGE_NAMES`)
with one span, a content-addressed fingerprint (timed under its own
``fingerprint`` span), and a cacheable
:class:`~repro.discovery.engine.artifacts.RankedResult`.
"""

from __future__ import annotations

from repro.discovery.engine.artifacts import RankedResult
from repro.discovery.engine.cache import stage_cache
from repro.discovery.engine.stages import EngineOutcome
from repro.discovery.fingerprint import (
    semantics_content_key,
    stage_fingerprint,
)


def clio_fingerprint(source_semantics, target_semantics, correspondences) -> str:
    """The ``clio`` stage's input fingerprint (schemas enter via the
    semantics keys; the baseline reads no :class:`DiscoveryOptions`
    fields)."""
    return stage_fingerprint(
        "clio",
        semantics_content_key(source_semantics),
        semantics_content_key(target_semantics),
        tuple(str(c) for c in correspondences),
    )


def run_clio(
    source_semantics,
    target_semantics,
    correspondences,
    tracer,
    notes: list[str],
    eliminations: list[str],
) -> EngineOutcome:
    """Run the RIC baseline as one cached stage."""
    # Imported lazily: repro.baseline.clio imports the mapper module,
    # which imports this engine package.
    from repro.baseline.clio import RICBasedMapper

    with tracer.span("fingerprint"):
        fingerprint = clio_fingerprint(
            source_semantics, target_semantics, correspondences
        )
    fingerprints = {"clio": fingerprint}
    cache = None if tracer.records_tree else stage_cache()
    with tracer.span("clio") as span:
        if cache is not None:
            ranked = cache.get("clio", fingerprint)
            if ranked is not None:
                notes.extend(ranked.notes)
                eliminations.extend(ranked.eliminations)
                span.set("candidates", len(ranked.candidates))
                return EngineOutcome(
                    list(ranked.candidates), fingerprints, full_hit=True
                )
        baseline = RICBasedMapper(
            source_semantics.schema,
            target_semantics.schema,
            correspondences,
        )
        result = baseline.discover()
        notes.extend(result.notes)
        eliminations.extend(result.eliminations)
        span.set("candidates", len(result.candidates))
        if cache is not None:
            cache.put(
                "clio",
                fingerprint,
                RankedResult(
                    tuple(result.candidates),
                    tuple(result.notes),
                    tuple(result.eliminations),
                ),
            )
    return EngineOutcome(result.candidates, fingerprints)
