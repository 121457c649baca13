"""The two artifacts the stage cache holds.

Each is stored under a content-addressed fingerprint (see
:func:`repro.discovery.fingerprint.stage_fingerprint`) that covers
everything the artifact depends on, so equal fingerprint ⇒ equal
artifact: the :class:`~repro.discovery.engine.cache.StageCache` can
substitute one for a recomputation without changing any output byte.

* :class:`RankedResult` — a whole run's output, keyed by the ``rank``
  stage fingerprint (or the ``clio`` fingerprint for the baseline). A
  hit answers the run without executing any stage.
* :class:`SourceSearchUnit` — one target CSG's fused source search,
  pair filter and translation, keyed by the target CSG's content plus
  the correspondences relevant to it. A hit replays that target after
  an edit elsewhere in the scenario.

The other stages' outputs are not cached: nothing would read them.
``lift`` and ``target_csgs`` recompute in about a millisecond per paper
case, and the fused middle stages are only ever reused per target.

Payloads are immutable (tuples of frozen dataclasses, strings, and the
frozen query/candidate objects), so artifacts may be shared freely
across threads and runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.discovery.ranking import CandidateScore
from repro.mappings.expression import MappingCandidate


@dataclass(frozen=True)
class SourceSearchUnit:
    """One target CSG's complete search outcome (the fused block's unit).

    ``scored`` carries the emitted candidates with their rank scores in
    emission order, which the stable rank sort depends on. ``notes`` and
    ``eliminations`` are replayed verbatim on a cache hit so warm runs
    stay byte-identical.
    """

    scored: tuple[tuple[CandidateScore, MappingCandidate], ...]
    notes: tuple[str, ...]
    eliminations: tuple[str, ...]


@dataclass(frozen=True)
class RankedResult:
    """Stage ``rank``: the final ordered candidate list plus diagnostics.

    Carries ``notes`` and ``eliminations`` so a full-pipeline cache hit
    can reconstruct a complete :class:`DiscoveryResult` without running
    any stage.
    """

    candidates: tuple[MappingCandidate, ...]
    notes: tuple[str, ...]
    eliminations: tuple[str, ...]
