"""The staged semantic-discovery engine (the pipeline of Section 3).

:class:`SemanticEngine` runs the algorithm as six explicit stages —
:data:`STAGE_NAMES` — each with a content-addressed input fingerprint
chained from its upstream stages and the options it reads
(:meth:`SemanticEngine.stage_fingerprints`). ``SemanticMapper`` is a
thin orchestrator over this engine; the engine owns the stage graph, the
spans, and the :class:`~repro.discovery.engine.cache.StageCache`
interaction.

One clock: each instrumented site opens exactly one span on the run's
:class:`~repro.trace.Recorder` — a stage span per name in
:data:`STAGE_NAMES` (``source_search`` once per target CSG) plus the
finer ``functional_csgs``, ``lossy_extension`` and ``csg_pair`` spans,
and a ``fingerprint`` span around the content hashing of the stage and
unit keys.
The recorder's per-name totals and self times are the
``time_<name>_s`` / ``self_<name>_s`` keys of ``DiscoveryResult.stats``,
the trace's span names, and the service's phase labels, so the three
vocabularies cannot drift (a test pins them identical).

Fused execution
---------------
``source_search``, ``pair_filter``, and ``translate`` execute as one
fused per-target loop: the paper's tiered fallback (full functional
trees → lossy extension → split across partial trees) decides whether to
try the next tier based on whether candidate *emission* — which runs the
pair filters and the translation — produced results for the previous
tier. Separating the stages with barriers would change which tiers run
and therefore the output. The fused block's reuse granularity is the
per-target :class:`SourceSearchUnit`, keyed by the target CSG's content
plus the correspondences relevant to it — this is what makes a
one-correspondence edit cheap: every unaffected target's unit replays
from cache.

Caching discipline: the stage cache holds two kinds of entry, the only
ones a run ever reads back — the whole run's :class:`RankedResult`
under the ``rank`` fingerprint, and one :class:`SourceSearchUnit` per
target CSG. ``lift`` and ``target_csgs`` always recompute (about a
millisecond per paper case). The cache is consulted only when the run
records no span tree (a :class:`~repro.trace.Tracer` wants the real
spans and prune events, so cached fast paths are bypassed). Warm runs
replay recorded notes/eliminations in order, so they are byte-identical
to cold ones.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.correspondences import CorrespondenceSet, LiftedCorrespondence
from repro.discovery.compatibility import (
    ConnectionProfile,
    compatibility_violation,
)
from repro.discovery.csg import (
    CSG,
    extend_partial_trees,
    find_source_functional_csgs,
    find_target_csgs,
)
from repro.discovery.engine.artifacts import RankedResult, SourceSearchUnit
from repro.discovery.engine.cache import StageCache, stage_cache
from repro.discovery.fingerprint import (
    csg_content_key,
    semantics_content_key,
    stage_fingerprint,
)
from repro.discovery.options import DiscoveryOptions
from repro.discovery.ranking import CandidateScore, origin_rank
from repro.discovery.steiner import CostModel, direction_reversals
from repro.discovery.translate import translate_csg
from repro.exceptions import DiscoveryError
from repro.mappings.expression import (
    MappingCandidate,
    deduplicate_candidates,
    trim_redundant_joins,
)
from repro.mappings.refinement import optional_tables
from repro.trace.tracer import Recorder

#: The semantic pipeline's stages, in execution order: the names of the
#: stage spans (and therefore of the ``time_<stage>_s`` stats keys and
#: the service's phase metrics) and of the stage fingerprints.
STAGE_NAMES = (
    "lift",
    "target_csgs",
    "source_search",
    "pair_filter",
    "translate",
    "rank",
)

#: The Clio/RIC baseline runs as a single adapter stage.
CLIO_STAGE_NAMES = ("clio",)

#: The cache key name of the fused block's per-target units.
UNIT_STAGE = "source_search.unit"

#: The :class:`DiscoveryOptions` fields each stage's output depends on.
#: Fields *not* listed for a stage must never change its output;
#: ``explain`` / ``trace`` / ``cache_dir`` are deliberately absent
#: everywhere (observability and the deployment-local cache directory
#: must not invalidate caches).
STAGE_OPTION_FIELDS: dict[str, tuple[str, ...]] = {
    "lift": (),
    "target_csgs": (),
    "source_search": ("max_path_edges",),
    "pair_filter": (
        "use_cardinality_filter",
        "use_disjointness_filter",
        "use_partof_filter",
    ),
    "translate": (),
    "rank": (),
}


class EngineOutcome:
    """What one engine run hands back to the orchestrator."""

    __slots__ = ("candidates", "stage_fingerprints", "full_hit")

    def __init__(
        self,
        candidates: list[MappingCandidate],
        stage_fingerprints: dict[str, str],
        full_hit: bool = False,
    ) -> None:
        self.candidates = candidates
        self.stage_fingerprints = stage_fingerprints
        self.full_hit = full_hit


class SemanticEngine:
    """One run of the staged pipeline over a fixed scenario."""

    def __init__(
        self,
        source_semantics,
        target_semantics,
        correspondences: CorrespondenceSet,
        options: DiscoveryOptions,
        source_reasoner,
        target_reasoner,
        tracer: Recorder,
    ) -> None:
        self.source_semantics = source_semantics
        self.target_semantics = target_semantics
        self.correspondences = correspondences
        self.options = options
        self._source_reasoner = source_reasoner
        self._target_reasoner = target_reasoner
        self._tracer = tracer

    # ------------------------------------------------------------------
    # Fingerprints
    # ------------------------------------------------------------------
    def _options_subset(self, stage: str) -> tuple[tuple[str, Any], ...]:
        return tuple(
            (name, getattr(self.options, name))
            for name in STAGE_OPTION_FIELDS[stage]
        )

    def stage_fingerprints(self) -> dict[str, str]:
        """Every stage's input fingerprint, chained in pipeline order."""
        source_key = semantics_content_key(self.source_semantics)
        target_key = semantics_content_key(self.target_semantics)
        correspondence_key = tuple(str(c) for c in self.correspondences)
        fingerprints: dict[str, str] = {}
        upstream = stage_fingerprint(
            "lift",
            source_key,
            target_key,
            correspondence_key,
            self._options_subset("lift"),
        )
        fingerprints["lift"] = upstream
        for stage in STAGE_NAMES[1:]:
            upstream = stage_fingerprint(
                stage, upstream, self._options_subset(stage)
            )
            fingerprints[stage] = upstream
        return fingerprints

    def _unit_fingerprint(
        self,
        target_csg: CSG,
        relevant: tuple[LiftedCorrespondence, ...],
    ) -> str:
        """One fused-block unit's identity: target CSG × relevant items.

        Deliberately independent of the *other* correspondences and
        target CSGs, so a one-correspondence edit leaves every
        unaffected target's unit fingerprint — and cache entry — intact.
        """
        return stage_fingerprint(
            UNIT_STAGE,
            semantics_content_key(self.source_semantics),
            semantics_content_key(self.target_semantics),
            csg_content_key(target_csg),
            tuple(str(item) for item in relevant),
            self._options_subset("source_search"),
            self._options_subset("pair_filter"),
            self._options_subset("translate"),
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def _cache(self) -> StageCache | None:
        """The stage cache, or ``None`` when a span tree is recorded
        (spans and prune events must come from real execution)."""
        return None if self._tracer.records_tree else stage_cache()

    def run(
        self, notes: list[str], eliminations: list[str]
    ) -> EngineOutcome:
        with self._tracer.span("fingerprint"):
            fingerprints = self.stage_fingerprints()
        cache = self._cache()
        if cache is not None:
            ranked = cache.get("rank", fingerprints["rank"])
            if ranked is not None:
                notes.extend(ranked.notes)
                eliminations.extend(ranked.eliminations)
                return EngineOutcome(
                    list(ranked.candidates), fingerprints, full_hit=True
                )
        lifted = self._lift()
        if not lifted:
            raise DiscoveryError("no correspondences to interpret")
        targets = self._target_csgs(lifted)
        scored = self._fused_search(
            cache, lifted, targets, notes, eliminations
        )
        candidates = self._rank(scored)
        if cache is not None:
            cache.put(
                "rank",
                fingerprints["rank"],
                RankedResult(
                    tuple(candidates), tuple(notes), tuple(eliminations)
                ),
            )
        return EngineOutcome(candidates, fingerprints)

    # ------------------------------------------------------------------
    # Stage 1: lift
    # ------------------------------------------------------------------
    def _lift(self) -> tuple[LiftedCorrespondence, ...]:
        with self._tracer.span("lift") as span:
            lifted = tuple(
                self.correspondences.lift(
                    self.source_semantics, self.target_semantics
                )
            )
            span.set("correspondences", len(lifted))
        return lifted

    # ------------------------------------------------------------------
    # Stage 2: target CSGs
    # ------------------------------------------------------------------
    def _target_csgs(
        self, lifted: tuple[LiftedCorrespondence, ...]
    ) -> tuple[CSG, ...]:
        with self._tracer.span("target_csgs") as span:
            csgs = tuple(find_target_csgs(self.target_semantics, lifted))
            span.set("found", len(csgs))
        return csgs

    # ------------------------------------------------------------------
    # Stages 3-5 (fused): source search, pair filter, translate
    # ------------------------------------------------------------------
    def _fused_search(
        self,
        cache: StageCache | None,
        lifted: tuple[LiftedCorrespondence, ...],
        targets: tuple[CSG, ...],
        notes: list[str],
        eliminations: list[str],
    ) -> list[tuple[CandidateScore, MappingCandidate]]:
        scored: list[tuple[CandidateScore, MappingCandidate]] = []
        for target_csg in targets:
            relevant = tuple(
                item
                for item in lifted
                if item.target_class in target_csg.marked_classes()
            )
            if not relevant:
                continue
            with self._tracer.span(
                "source_search",
                target=str(target_csg.anchor),
                origin=target_csg.origin,
            ) as span:
                with self._tracer.span("fingerprint"):
                    unit_key = self._unit_fingerprint(target_csg, relevant)
                unit = (
                    cache.get(UNIT_STAGE, unit_key)
                    if cache is not None
                    else None
                )
                if unit is None:
                    unit = self._run_unit(target_csg, relevant)
                    if cache is not None:
                        cache.put(UNIT_STAGE, unit_key, unit)
                span.set("candidates", len(unit.scored))
            notes.extend(unit.notes)
            eliminations.extend(unit.eliminations)
            scored.extend(unit.scored)
        return scored

    def _run_unit(
        self,
        target_csg: CSG,
        relevant: tuple[LiftedCorrespondence, ...],
    ) -> SourceSearchUnit:
        """One target CSG's search, packed for replay."""
        notes: list[str] = []
        eliminations: list[str] = []
        scored = self._search_tiers(target_csg, relevant, notes, eliminations)
        return SourceSearchUnit(
            tuple(scored), tuple(notes), tuple(eliminations)
        )

    def _search_tiers(
        self,
        target_csg: CSG,
        relevant: tuple[LiftedCorrespondence, ...],
        notes: list[str],
        eliminations: list[str],
    ) -> list[tuple[CandidateScore, MappingCandidate]]:
        """The per-target tiered search (Section 3.3's fallback ladder)."""
        marked_sources = {item.source_class for item in relevant}
        with self._tracer.span("functional_csgs") as span:
            functional = find_source_functional_csgs(
                self.source_semantics, relevant, target_csg
            )
            span.set("found", len(functional))
        full = [
            csg
            for csg in functional
            if csg.marked_classes() >= marked_sources
        ]
        results: list[tuple[CandidateScore, MappingCandidate]] = []
        if full:
            for source_csg in full:
                results.extend(
                    self._emit(source_csg, target_csg, relevant, eliminations)
                )
            if results:
                return results
            notes.append(
                f"{target_csg}: functional trees found but all pairs "
                f"incompatible"
            )
        # Lossy fallback (Section 3.3): extend partial functional trees
        # (including Case A.1's anchored partial trees) with minimally
        # lossy attachment paths to the remaining marked classes.
        cost_model = CostModel.from_edges(
            self.source_semantics.preselected_cm_edges(
                [item.correspondence.source for item in relevant]
            )
        )
        with self._tracer.span("lossy_extension") as span:
            extended = extend_partial_trees(
                self.source_semantics,
                marked_sources,
                cost_model,
                extra_bases=tuple(functional),
                max_edges=self.options.max_path_edges,
            )
            span.set("found", len(extended))
        for source_csg in extended:
            results.extend(
                self._emit(source_csg, target_csg, relevant, eliminations)
            )
        if results:
            return results
        if extended:
            notes.append(
                f"{target_csg}: lossy extensions found but incompatible"
            )
        # Split: partially covering functional trees, one candidate each.
        for source_csg in functional:
            results.extend(
                self._emit(source_csg, target_csg, relevant, eliminations)
            )
        if not results:
            notes.append(f"{target_csg}: no source connection found")
        return results

    # ------------------------------------------------------------------
    # Candidate emission (pair filter + translate, per CSG pair)
    # ------------------------------------------------------------------
    def _emit(
        self,
        source_csg: CSG,
        target_csg: CSG,
        relevant: tuple[LiftedCorrespondence, ...],
        eliminations: list[str],
    ) -> list[tuple[CandidateScore, MappingCandidate]]:
        covered = tuple(
            item
            for item in relevant
            if item.source_class in source_csg.marked_classes()
            and item.target_class in target_csg.marked_classes()
        )
        if not covered:
            return []
        with self._tracer.span("csg_pair") as span:
            if self._tracer.records_tree:
                span.set("source", str(source_csg))
                span.set("target", str(target_csg))
            with self._tracer.span("pair_filter"):
                if not self._trees_consistent(source_csg, target_csg):
                    detail = (
                        f"{source_csg} ⇄ {target_csg}: inconsistent tree "
                        f"(disjointness)"
                    )
                    eliminations.append(detail)
                    self._tracer.prune(
                        phase="pair_filter",
                        rule="disjointness.tree",
                        source_csg=str(source_csg),
                        target_csg=str(target_csg),
                        detail=detail,
                    )
                    return []
                reversals = self._pair_compatible(
                    source_csg, target_csg, covered, eliminations
                )
            if reversals is None:
                return []
            with self._tracer.span("translate"):
                source_queries = translate_csg(
                    source_csg, covered, "source", self.source_semantics
                )
                target_queries = translate_csg(
                    target_csg, covered, "target", self.target_semantics
                )
            results = []
            for source_query, target_query in itertools.product(
                source_queries, target_queries
            ):
                candidate = MappingCandidate(
                    source_query,
                    target_query,
                    tuple(item.correspondence for item in covered),
                    method="semantic",
                    notes=f"{source_csg.origin}→{target_csg.origin}",
                    source_optional_tables=optional_tables(
                        source_query, source_csg, self.source_semantics
                    ),
                )
                score = CandidateScore(
                    covered=len(covered),
                    reversals=reversals,
                    tree_size=len(source_csg.tree.nodes())
                    + len(target_csg.tree.nodes()),
                    preselected=0,
                    origin_rank=origin_rank(source_csg.origin),
                    anchor_rank=self._anchor_rank(source_csg, target_csg),
                )
                results.append((score, candidate))
            span.set("candidates", len(results))
        return results

    def _anchor_rank(self, source_csg: CSG, target_csg: CSG) -> int:
        """Section 3.3's reified-anchor preference (0 = anchors agree).

        A target tree rooted at a reified relationship prefers a source
        tree rooted at a reified relationship of compatible arity and
        connection category; mismatched kinds rank behind.
        """
        from repro.discovery.compatibility import (
            AnchorProfile,
            anchors_compatible,
        )

        source_root = source_csg.anchor.cm_node
        target_root = target_csg.anchor.cm_node
        source_reified = self.source_semantics.graph.is_reified(source_root)
        target_reified = self.target_semantics.graph.is_reified(target_root)
        if not target_reified:
            return 0
        if not source_reified:
            self._tracer.prune(
                phase="rank",
                rule="anchor",
                source_csg=str(source_csg),
                target_csg=str(target_csg),
                detail=(
                    f"{source_csg} ranked behind: plain source anchor "
                    f"for reified target anchor {target_root}"
                ),
            )
            return 1
        source_profile = AnchorProfile.of_reified(
            self._source_reasoner, source_root
        )
        target_profile = AnchorProfile.of_reified(
            self._target_reasoner, target_root
        )
        if anchors_compatible(source_profile, target_profile):
            return 0
        self._tracer.prune(
            phase="rank",
            rule="anchor",
            source_csg=str(source_csg),
            target_csg=str(target_csg),
            detail=(
                f"{source_csg} ranked behind: reified anchors disagree "
                f"in arity/category ({source_root} vs {target_root})"
            ),
        )
        return 1

    def _trees_consistent(self, source_csg: CSG, target_csg: CSG) -> bool:
        if not self.options.use_disjointness_filter:
            return True
        return self._source_reasoner.tree_is_consistent(
            list(source_csg.cm_edges())
        ) and self._target_reasoner.tree_is_consistent(
            list(target_csg.cm_edges())
        )

    def _pair_compatible(
        self,
        source_csg: CSG,
        target_csg: CSG,
        covered: tuple[LiftedCorrespondence, ...],
        eliminations: list[str],
    ) -> int | None:
        """Check pairwise connection compatibility; return total reversals.

        ``None`` signals an incompatible pair (candidate eliminated).
        """
        total_reversals = 0
        options = self.options
        for first, second in itertools.combinations(covered, 2):
            if (
                first.source_class == second.source_class
                and first.target_class == second.target_class
            ):
                continue
            source_path = self._path(
                source_csg, first.source_class, second.source_class
            )
            target_path = self._path(
                target_csg, first.target_class, second.target_class
            )
            if options.use_disjointness_filter:
                if not self._source_reasoner.path_is_consistent(
                    list(source_path)
                ):
                    detail = (
                        f"{source_csg}: inconsistent source path "
                        f"{first.source_class}–{second.source_class}"
                    )
                    eliminations.append(detail)
                    self._tracer.prune(
                        phase="pair_filter",
                        rule="disjointness.path",
                        source_csg=str(source_csg),
                        target_csg=str(target_csg),
                        detail=detail,
                    )
                    return None
                if not self._target_reasoner.path_is_consistent(
                    list(target_path)
                ):
                    detail = (
                        f"{target_csg}: inconsistent target path "
                        f"{first.target_class}–{second.target_class}"
                    )
                    eliminations.append(detail)
                    self._tracer.prune(
                        phase="pair_filter",
                        rule="disjointness.path",
                        source_csg=str(source_csg),
                        target_csg=str(target_csg),
                        detail=detail,
                    )
                    return None
            source_profile = ConnectionProfile.of_path(source_path)
            target_profile = ConnectionProfile.of_path(target_path)
            violation = compatibility_violation(
                source_profile,
                target_profile,
                check_cardinality=options.use_cardinality_filter,
                check_semantic_type=options.use_partof_filter,
            )
            if violation is not None:
                detail = (
                    f"{source_csg} ⇄ {target_csg}: "
                    f"{source_profile.category.value}/"
                    f"{source_profile.semantic_type.value} source vs "
                    f"{target_profile.category.value}/"
                    f"{target_profile.semantic_type.value} target "
                    f"({first.source_class}–{second.source_class})"
                )
                eliminations.append(detail)
                self._tracer.prune(
                    phase="pair_filter",
                    rule=violation,
                    source_csg=str(source_csg),
                    target_csg=str(target_csg),
                    detail=detail,
                )
                return None
            total_reversals += direction_reversals(source_path)
        return total_reversals

    @staticmethod
    def _path(csg: CSG, first: str, second: str):
        if first == second:
            return ()
        return csg.connecting_path(first, second)

    # ------------------------------------------------------------------
    # Stage 6: rank
    # ------------------------------------------------------------------
    def _rank(
        self, scored: list[tuple[CandidateScore, MappingCandidate]]
    ) -> list[MappingCandidate]:
        with self._tracer.span("rank") as span:
            scored.sort(key=lambda pair: pair[0].sort_key())
            candidates = trim_redundant_joins(
                deduplicate_candidates(
                    [candidate for _, candidate in scored],
                    criterion="connection",
                )
            )
            span.set("scored", len(scored))
            span.set("kept", len(candidates))
            if self._tracer.explain:
                self._record_rank_provenance(scored, candidates)
        return candidates

    def _record_rank_provenance(
        self,
        scored: list[tuple[CandidateScore, MappingCandidate]],
        candidates: list[MappingCandidate],
    ) -> None:
        """Attach each surviving candidate's score components to the trace."""
        scores = {id(candidate): score for score, candidate in scored}
        for rank, candidate in enumerate(candidates, start=1):
            score = scores.get(id(candidate))
            entry: dict[str, Any] = {
                "rank": rank,
                "candidate": candidate.notes,
                "covered_correspondences": len(candidate.covered),
            }
            if score is not None:
                entry.update(
                    covered=score.covered,
                    reversals=score.reversals,
                    anchor_rank=score.anchor_rank,
                    preselected=score.preselected,
                    tree_size=score.tree_size,
                    origin_rank=score.origin_rank,
                )
            self._tracer.rank(entry)
