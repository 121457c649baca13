"""The end-to-end semantic mapping discovery pipeline (Section 3).

:class:`SemanticMapper` is a thin orchestrator: it validates the
correspondences, resolves the run's tracer and cache directory, and
delegates the algorithm to the staged engine
(:mod:`repro.discovery.engine`), which runs it as six explicit stages:

1. **lift** the correspondences to marked class nodes in both CM graphs;
2. **target_csgs** — find target CSGs (Case A: a single pre-selected
   s-tree; Case B: constructed minimal functional trees);
3. **source_search** — for each target CSG, find source CSGs: Case A.1
   (anchored at the class corresponding to the target anchor), Case A.2
   (all minimal functional trees), and, when no functional tree covers
   the marked nodes and the target connection tolerates it, the
   Section 3.3 lossy path search; when even that fails, split the
   correspondences across partially covering trees;
4. **pair_filter** — filter CSG pairs by semantic compatibility
   (cardinality categories, partOf, ISA-disjointness consistency);
5. **translate** each surviving pair into table-level expressions by LAV
   rewriting;
6. **rank** the emitted :class:`MappingCandidate` objects.

Each stage has a content-addressed input fingerprint (exposed on
:attr:`DiscoveryResult.stage_fingerprints`), and a bounded LRU stage
cache of whole-run results and per-target search units makes repeated
and *incremental* discovery
(:func:`repro.discovery.incremental.rediscover`) cheap — see
``docs/architecture.md``.

Tuning knobs live on one frozen
:class:`~repro.discovery.options.DiscoveryOptions` object shared by
every entry point (library, batch, CLI, service).
``DiscoveryOptions(engine="clio")`` routes the run through the
schema-only RIC baseline behind the same API. With
``DiscoveryOptions(explain=True)`` (or a caller-owned
:class:`repro.trace.Tracer`) the run records a span tree of per-phase
wall times, a structured prune event for every candidate a semantic
filter rejected, and per-candidate rank provenance — all exposed on
:attr:`DiscoveryResult.trace`. Every run, traced or not, times its
spans through one :class:`repro.trace.Recorder`, whose per-name totals
and self times land in :attr:`DiscoveryResult.stats`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.cm.reasoner import CMReasoner
from repro.correspondences import Correspondence, CorrespondenceSet
from repro.discovery.engine import persist
from repro.discovery.engine.stages import EngineOutcome, SemanticEngine
from repro.discovery.options import DEFAULT_OPTIONS, DiscoveryOptions
from repro.mappings.expression import MappingCandidate, MappingSet
from repro.perf import counters as perf_counters
from repro.semantics.lav import SchemaSemantics
from repro.trace.tracer import Recorder, Tracer
from repro.validation import validate_correspondences


@dataclass
class DiscoveryResult:
    """Ranked candidates plus run diagnostics.

    ``eliminations`` records CSG pairs removed by the semantic filters
    (with the responsible filter named) — the library-level analogue of
    the paper's interactive mapping debugging. With tracing/explain
    enabled, ``trace`` carries the structured counterpart: the span
    tree, the prune log, and per-candidate rank provenance (see
    :mod:`repro.trace`); ``rank_provenance`` mirrors the provenance
    entries for direct access.
    """

    candidates: list[MappingCandidate]
    elapsed_seconds: float
    notes: list[str] = field(default_factory=list)
    eliminations: list[str] = field(default_factory=list)
    correspondences: CorrespondenceSet | None = None
    #: Instrumentation for this run: cache hit/miss counters, Dijkstra
    #: sweeps and paths pruned (see ``repro.perf.counters`` for the
    #: counter vocabulary), plus, per span name, the total
    #: (``time_<name>_s``) and self (``self_<name>_s``) seconds of the
    #: run's :class:`repro.trace.Recorder`. Self times exclude nested
    #: spans, so they add up to ``time_discover_s``.
    stats: dict[str, int | float] = field(default_factory=dict)
    #: The trace document of this run (``Tracer.to_dict()``), or ``None``
    #: when the run was untraced.
    trace: dict[str, Any] | None = None
    #: Per-candidate score components, best first (explain mode only).
    rank_provenance: list[dict[str, Any]] = field(default_factory=list)
    #: Content-addressed input fingerprint of every engine stage (see
    #: ``repro.discovery.engine``); feeds incremental re-discovery,
    #: which compares these against a previous run's to report exactly
    #: which stages an edit invalidated.
    stage_fingerprints: dict[str, str] = field(default_factory=dict)
    #: Content-addressed fingerprint of the whole scenario (see
    #: :func:`repro.discovery.fingerprint.discovery_fingerprint`) —
    #: the same key the service result cache uses.
    fingerprint: str | None = None
    #: Caller-chosen scenario label, stamped by ``Scenario.run``.
    scenario_id: str | None = None

    @property
    def mappings(self) -> MappingSet:
        """The candidates as a first-class, provenance-stamped set.

        This is the artifact downstream consumers should hold on to:
        :func:`repro.mappings.algebra.compose` / ``implies`` /
        ``diff_candidates`` accept it, it serializes via the versioned
        ``repro-mappings/1`` format, and it carries the scenario
        fingerprint the result caches key on.
        """
        return MappingSet(
            candidates=tuple(self.candidates),
            fingerprint=self.fingerprint,
            scenario_id=self.scenario_id,
        )

    def best(self) -> MappingCandidate | None:
        return self.candidates[0] if self.candidates else None

    def uncovered_correspondences(self) -> tuple[Correspondence, ...]:
        """Input correspondences no candidate covers (need user attention)."""
        if self.correspondences is None:
            return ()
        covered: set[Correspondence] = set()
        for candidate in self.candidates:
            covered.update(candidate.covered)
        return tuple(
            c for c in self.correspondences if c not in covered
        )

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)


class SemanticMapper:
    """Discovers schema mapping candidates from table semantics."""

    def __init__(
        self,
        source_semantics: SchemaSemantics,
        target_semantics: SchemaSemantics,
        correspondences: CorrespondenceSet,
        options: DiscoveryOptions | None = None,
    ) -> None:
        """``options`` collects every tuning knob (ablation filter
        switches, the lossy-path length cap, engine selection,
        explain/trace recording, the cache directory).

        The semantics were checked when they were built (a
        :class:`SchemaSemantics` with a malformed s-tree does not
        exist); the correspondences are checked here, through
        :func:`repro.validation.validate_correspondences`: a dangling or
        unliftable one raises :class:`~repro.exceptions.ValidationError`
        with structured diagnostics instead of failing mid-search.
        """
        validate_correspondences(
            correspondences, source_semantics, target_semantics
        ).raise_if_errors()
        self.options = options if options is not None else DEFAULT_OPTIONS
        self.source_semantics = source_semantics
        self.target_semantics = target_semantics
        self.correspondences = correspondences
        self._source_reasoner = CMReasoner(source_semantics.model)
        self._target_reasoner = CMReasoner(target_semantics.model)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def discover(self, tracer: Tracer | None = None) -> DiscoveryResult:
        """Run the pipeline; ``tracer`` overrides the options' tracer.

        A caller-owned ``tracer`` accumulates across runs; the stats of
        this result count only the spans this run closed.
        """
        if tracer is not None:
            recorder: Recorder = tracer
        elif self.options.wants_trace:
            recorder = Tracer(explain=self.options.explain)
        else:
            recorder = Recorder()
        before = recorder.timings()
        notes: list[str] = []
        self._eliminations: list[str] = []
        persistence = (
            persist.cache_dir_override(self.options.cache_dir)
            if self.options.cache_dir is not None
            else nullcontext()
        )
        with recorder.span("discover") as span, persistence:
            with perf_counters.scope() as frame:
                outcome = self._run_engine(recorder, notes)
        stats: dict[str, int | float] = frame.snapshot()
        stats.update(recorder.stats(since=before))
        traced = recorder.records_tree
        from repro.discovery.fingerprint import discovery_fingerprint

        return DiscoveryResult(
            outcome.candidates,
            span.elapsed_seconds,
            notes,
            eliminations=self._eliminations,
            correspondences=self.correspondences,
            stats=stats,
            trace=recorder.to_dict() if traced else None,
            rank_provenance=list(recorder.provenance) if traced else [],
            stage_fingerprints=outcome.stage_fingerprints,
            fingerprint=discovery_fingerprint(
                self.source_semantics,
                self.target_semantics,
                self.correspondences,
                self.options.to_pairs(),
            ),
        )

    def _run_engine(
        self, recorder: Recorder, notes: list[str]
    ) -> EngineOutcome:
        """Dispatch to the engine ``self.options.engine`` selects."""
        if self.options.engine == "clio":
            from repro.discovery.engine.clio import run_clio

            return run_clio(
                self.source_semantics,
                self.target_semantics,
                self.correspondences,
                recorder,
                notes,
                self._eliminations,
            )
        engine = SemanticEngine(
            self.source_semantics,
            self.target_semantics,
            self.correspondences,
            self.options,
            self._source_reasoner,
            self._target_reasoner,
            recorder,
        )
        return engine.run(notes, self._eliminations)

    def stage_fingerprints(self) -> dict[str, str]:
        """The engine-stage fingerprints this mapper's inputs produce.

        Computable without running discovery — incremental re-discovery
        uses this to predict which stages an edit invalidates.
        """
        if self.options.engine == "clio":
            from repro.discovery.engine.clio import clio_fingerprint

            return {
                "clio": clio_fingerprint(
                    self.source_semantics,
                    self.target_semantics,
                    self.correspondences,
                )
            }
        return SemanticEngine(
            self.source_semantics,
            self.target_semantics,
            self.correspondences,
            self.options,
            self._source_reasoner,
            self._target_reasoner,
            Recorder(),
        ).stage_fingerprints()


def discover_mappings(
    source_semantics: SchemaSemantics,
    target_semantics: SchemaSemantics,
    correspondences: CorrespondenceSet,
    options: DiscoveryOptions | None = None,
    trace: Tracer | None = None,
) -> DiscoveryResult:
    """One-shot convenience wrapper around :class:`SemanticMapper`.

    ``options`` carries every tuning knob; ``trace`` injects a
    caller-owned :class:`repro.trace.Tracer` (its spans and prune events
    accumulate there *and* on ``result.trace``).
    """
    return SemanticMapper(
        source_semantics,
        target_semantics,
        correspondences,
        options=options,
    ).discover(tracer=trace)
