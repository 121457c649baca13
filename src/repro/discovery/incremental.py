"""Incremental re-discovery: run again after an edit, reusing stages.

After a user edits a scenario — typically adding, removing, or changing
one correspondence in the interactive refinement loop the paper
describes — most of the discovery work is unchanged: the schemas and
CMs are the same, and every target CSG whose covered correspondences
the edit did not touch would search, filter, and translate identically.
:func:`rediscover` runs the edited scenario through the staged engine
(whose process-wide :class:`~repro.discovery.engine.cache.StageCache`
still holds the previous run's artifacts) and reports *what was
reusable*: which stages the edit invalidated (by fingerprint
comparison against the previous run) and how many cached results and
per-target search units the warm run actually replayed.

The output is byte-identical to a cold run of the edited scenario — the
cache substitutes artifacts only at equal content fingerprints — so
callers never trade correctness for the speedup. The batch, service,
CLI (``python -m repro map --reuse-from``), and benchmark layers all go
through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.discovery.batch import Scenario
from repro.discovery.engine.stages import STAGE_NAMES, UNIT_STAGE
from repro.discovery.mapper import DiscoveryResult


def _previous_fingerprints(
    previous: "DiscoveryResult | Rediscovery | Mapping[str, str] | None",
) -> dict[str, str]:
    if previous is None:
        return {}
    if isinstance(previous, DiscoveryResult):
        return dict(previous.stage_fingerprints)
    if isinstance(previous, Rediscovery):
        return dict(previous.result.stage_fingerprints)
    return dict(previous)


@dataclass
class Rediscovery:
    """One incremental run: the fresh result plus the reuse report.

    ``unchanged_stages`` / ``invalidated_stages`` compare the new run's
    stage fingerprints against the previous run's (pipeline order). Only
    ``rank`` is ever served wholesale from cache: when it is unchanged
    the whole run is one cache hit. Otherwise the fused search block
    reuses per-target units (see
    ``stats["stage_cache_hit_source_search.unit"]``), and ``lift`` and
    ``target_csgs`` recompute whether or not they changed.
    """

    result: DiscoveryResult
    previous_fingerprints: dict[str, str] = field(default_factory=dict)

    @property
    def stage_fingerprints(self) -> dict[str, str]:
        return self.result.stage_fingerprints

    @property
    def unchanged_stages(self) -> tuple[str, ...]:
        return tuple(
            stage
            for stage, fingerprint in self.result.stage_fingerprints.items()
            if self.previous_fingerprints.get(stage) == fingerprint
        )

    @property
    def invalidated_stages(self) -> tuple[str, ...]:
        return tuple(
            stage
            for stage, fingerprint in self.result.stage_fingerprints.items()
            if self.previous_fingerprints.get(stage) != fingerprint
        )

    @property
    def full_reuse(self) -> bool:
        """True when the edit changed nothing (every stage fingerprint
        matches the previous run's)."""
        return not self.invalidated_stages

    # -- cache traffic of this run (from ``result.stats``) ---------------
    @property
    def stage_cache_hits(self) -> int:
        return int(self.result.stats.get("stage_cache_hits", 0))

    @property
    def stage_cache_misses(self) -> int:
        return int(self.result.stats.get("stage_cache_misses", 0))

    @property
    def unit_cache_hits(self) -> int:
        """Per-target search units replayed from cache — the fine-grained
        reuse that survives a correspondence edit."""
        return int(
            self.result.stats.get(f"stage_cache_hit_{UNIT_STAGE}", 0)
        )

    def report(self) -> dict[str, Any]:
        """A JSON-friendly summary (CLI ``--reuse-from``, benchmarks)."""
        return {
            "unchanged_stages": list(self.unchanged_stages),
            "invalidated_stages": list(self.invalidated_stages),
            "full_reuse": self.full_reuse,
            "stage_cache_hits": self.stage_cache_hits,
            "stage_cache_misses": self.stage_cache_misses,
            "unit_cache_hits": self.unit_cache_hits,
            "elapsed_seconds": self.result.elapsed_seconds,
            "candidates": len(self.result.candidates),
        }


def rediscover(
    previous: "DiscoveryResult | Rediscovery | Mapping[str, str] | None",
    scenario: Scenario,
    tracer=None,
) -> Rediscovery:
    """Re-run discovery for an edited scenario, reusing cached stages.

    ``previous`` supplies the baseline stage fingerprints to compare
    against — the previous run's :class:`DiscoveryResult` (or its
    ``stage_fingerprints`` mapping, which is all that needs persisting),
    or ``None`` to just run warm and report this run's fingerprints. The
    actual reuse comes from the process-wide stage cache, so the previous
    run must have executed in this process for the speedup to
    materialise; the *report* is correct either way.
    """
    result = scenario.run(tracer=tracer)
    return Rediscovery(result, _previous_fingerprints(previous))


def rediscover_many(
    previous: Mapping[str, "DiscoveryResult | Mapping[str, str]"],
    scenarios: list[Scenario],
) -> list[tuple[str, Rediscovery]]:
    """Serially :func:`rediscover` each scenario against its previous run.

    ``previous`` maps ``scenario_id`` to the earlier result (missing ids
    run warm with an empty baseline). Serial on purpose: the reuse lives
    in this process's stage cache, which worker processes would not see.
    """
    outcomes: list[tuple[str, Rediscovery]] = []
    for scenario in scenarios:
        outcomes.append(
            (
                scenario.scenario_id,
                rediscover(previous.get(scenario.scenario_id), scenario),
            )
        )
    return outcomes


__all__ = [
    "Rediscovery",
    "rediscover",
    "rediscover_many",
    "STAGE_NAMES",
]
