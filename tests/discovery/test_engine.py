"""The staged engine: stage vocabulary, fingerprints, and the stage cache.

The headline contract (the "one vocabulary" test): the stats timing
keys, the trace span names, and the service phase metrics all come from
the spans of one recorder, and contain :data:`STAGE_NAMES` — the three
observability surfaces cannot drift apart because one clock feeds them.
Self times never double-count: per run they add up to the wall time.
The rest pins the cache discipline: byte-identical results across the
uncached reference pipeline and cold / warm runs, fingerprint
sensitivity to exactly the options each stage depends on, LRU eviction,
and the bypass rule (tracing).
"""

import threading

import pytest

import repro.perf as perf
from repro.discovery import DiscoveryOptions, SemanticMapper
from repro.discovery.engine import (
    CLIO_STAGE_NAMES,
    STAGE_NAMES,
    STAGE_OPTION_FIELDS,
    StageCache,
    clear_stage_cache,
)
from repro.service.jobs import observe_run_stats
from repro.service.metrics import ServiceMetrics
from repro.datasets.registry import load_all_datasets
from repro.trace import Tracer


def _tgds(result):
    return tuple(
        candidate.to_tgd(f"M{i}")
        for i, candidate in enumerate(result, start=1)
    )


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    yield
    perf.clear_caches()


@pytest.fixture()
def mapper_args(bookstore):
    return bookstore.source, bookstore.target, bookstore.correspondences


def _span_stat_names(stats, prefix):
    return {
        key[len(prefix) : -len("_s")]
        for key in stats
        if key.startswith(prefix) and key.endswith("_s")
    }


def _trace_span_names(trace):
    names = set()
    pending = list(trace["spans"])
    while pending:
        span = pending.pop()
        names.add(span["name"])
        pending.extend(span.get("children", ()))
    return names


def _assert_self_times_sum_to_wall_time(stats):
    names = _span_stat_names(stats, "self_")
    total = sum(stats[f"self_{name}_s"] for name in names)
    assert total == pytest.approx(
        stats["time_discover_s"], abs=1e-6 * len(names)
    )


class TestStageVocabulary:
    """Satellite: one stage vocabulary across stats, trace, and service."""

    def test_three_vocabularies_are_identical(self, mapper_args):
        # Vocabulary 1: stats timing keys of an untraced cold run.
        result = SemanticMapper(*mapper_args).discover()
        stats_phases = _span_stat_names(result.stats, "time_")
        assert _span_stat_names(result.stats, "self_") == stats_phases

        # Vocabulary 2: span names of a traced run of the same case.
        traced = SemanticMapper(*mapper_args).discover(
            tracer=Tracer(explain=True)
        )
        assert _trace_span_names(traced.trace) == stats_phases

        # Vocabulary 3: the service's phase metrics, fed from the same
        # stats keys by the job queue's observe_run_stats.
        metrics = ServiceMetrics()
        observe_run_stats(metrics, result.stats)
        assert set(metrics.phase_names()) == stats_phases
        assert set(STAGE_NAMES) | {"discover"} <= stats_phases

    def test_self_times_sum_to_discover_time_on_every_paper_case(self):
        cases = 0
        for pair in load_all_datasets():
            for case in pair.cases:
                perf.clear_caches()
                result = SemanticMapper(
                    pair.source, pair.target, case.correspondences
                ).discover()
                assert "self_translate_s" in result.stats, case.case_id
                _assert_self_times_sum_to_wall_time(result.stats)
                assert result.stats["time_discover_s"] == round(
                    result.elapsed_seconds, 6
                )
                cases += 1
        assert cases == 34

    def test_concurrent_runs_report_only_their_own_spans(self, mapper_args):
        barrier = threading.Barrier(2)
        results = {}

        def run(engine):
            barrier.wait(timeout=10)
            results[engine] = SemanticMapper(
                *mapper_args, options=DiscoveryOptions(engine=engine)
            ).discover()

        threads = [
            threading.Thread(target=run, args=(engine,))
            for engine in ("semantic", "clio")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert _span_stat_names(results["clio"].stats, "time_") == {
            "discover",
            "fingerprint",
            "clio",
        }
        assert "clio" not in _span_stat_names(
            results["semantic"].stats, "time_"
        )
        assert set(STAGE_NAMES) <= _span_stat_names(
            results["semantic"].stats, "time_"
        )
        for result in results.values():
            _assert_self_times_sum_to_wall_time(result.stats)

    def test_stage_option_fields_cover_exactly_the_stages(self):
        assert tuple(STAGE_OPTION_FIELDS) == STAGE_NAMES
        fields = set(DiscoveryOptions.__dataclass_fields__)
        for stage, names in STAGE_OPTION_FIELDS.items():
            assert set(names) <= fields, stage
            # Observability and the cache directory never invalidate
            # artifacts.
            assert "explain" not in names
            assert "trace" not in names
            assert "cache_dir" not in names

    def test_aggregate_counters_not_mistaken_for_per_stage(self):
        # "stage_cache_hits" must not match the "stage_cache_hit_"
        # prefix observe_run_stats routes per-stage labels by.
        metrics = ServiceMetrics()
        observe_run_stats(
            metrics,
            {"stage_cache_hits": 5, "stage_cache_hit_rank": 1},
        )
        assert metrics.total("stage_cache_hits_total") == 1
        assert metrics.value("stage_cache_hits_total", stage="rank") == 1


class TestCacheEquivalence:
    def test_disabled_cold_warm_byte_identical(self, mapper_args, uncached):
        """The uncached reference pipeline, cold and warm runs agree."""
        with uncached():
            reference = SemanticMapper(*mapper_args).discover()
        assert not any(
            key.startswith(("stage_cache", "translate_cache"))
            for key in reference.stats
        ), reference.stats
        cold = SemanticMapper(*mapper_args).discover()
        warm = SemanticMapper(*mapper_args).discover()
        assert _tgds(cold) == _tgds(reference)
        assert _tgds(warm) == _tgds(reference)
        assert cold.notes == reference.notes
        assert warm.notes == cold.notes
        assert warm.eliminations == cold.eliminations
        assert cold.stats.get("stage_cache_hits", 0) == 0
        assert warm.stats.get("stage_cache_hits", 0) >= 1
        # The warm run was served wholesale from the rank artifact.
        assert warm.stats.get("stage_cache_hit_rank", 0) == 1

    def test_traced_runs_bypass_but_match(self, mapper_args):
        cold = SemanticMapper(*mapper_args).discover()
        traced = SemanticMapper(*mapper_args).discover(
            tracer=Tracer(explain=True)
        )
        assert not any("stage_cache" in key for key in traced.stats)
        assert _tgds(traced) == _tgds(cold)

    def test_fingerprints_predict_result_fingerprints(self, mapper_args):
        mapper = SemanticMapper(*mapper_args)
        predicted = mapper.stage_fingerprints()
        result = mapper.discover()
        assert predicted == result.stage_fingerprints
        assert tuple(predicted) == STAGE_NAMES


class TestFingerprintSensitivity:
    def test_search_option_invalidates_search_and_downstream(
        self, mapper_args
    ):
        base = SemanticMapper(*mapper_args).stage_fingerprints()
        tuned = SemanticMapper(
            *mapper_args, options=DiscoveryOptions(max_path_edges=4)
        ).stage_fingerprints()
        assert tuned["lift"] == base["lift"]
        assert tuned["target_csgs"] == base["target_csgs"]
        for stage in ("source_search", "pair_filter", "translate", "rank"):
            assert tuned[stage] != base[stage], stage

    def test_filter_option_leaves_search_untouched(self, mapper_args):
        base = SemanticMapper(*mapper_args).stage_fingerprints()
        tuned = SemanticMapper(
            *mapper_args, options=DiscoveryOptions(use_partof_filter=False)
        ).stage_fingerprints()
        for stage in ("lift", "target_csgs", "source_search"):
            assert tuned[stage] == base[stage], stage
        for stage in ("pair_filter", "translate", "rank"):
            assert tuned[stage] != base[stage], stage

    def test_observability_options_change_nothing(self, mapper_args):
        base = SemanticMapper(*mapper_args).stage_fingerprints()
        for options in (
            DiscoveryOptions(explain=True),
            DiscoveryOptions(trace=True),
            DiscoveryOptions(cache_dir="/nonexistent/cache"),
        ):
            tuned = SemanticMapper(
                *mapper_args, options=options
            ).stage_fingerprints()
            assert tuned == base, options

    def test_correspondence_edit_invalidates_everything(self, bookstore):
        from repro.correspondences import CorrespondenceSet

        base = SemanticMapper(
            bookstore.source, bookstore.target, bookstore.correspondences
        ).stage_fingerprints()
        edited = SemanticMapper(
            bookstore.source,
            bookstore.target,
            CorrespondenceSet(list(bookstore.correspondences)[:-1]),
        ).stage_fingerprints()
        for stage in STAGE_NAMES:
            assert edited[stage] != base[stage], stage


class TestStageCacheLRU:
    def test_eviction_order_and_capacity(self):
        cache = StageCache(capacity=2)
        cache.put("lift", "fp1", "a")
        cache.put("lift", "fp2", "b")
        assert cache.get("lift", "fp1") == "a"  # fp1 now most recent
        cache.put("lift", "fp3", "c")  # evicts fp2
        assert len(cache) == 2
        assert cache.get("lift", "fp2") is None
        assert cache.get("lift", "fp1") == "a"
        assert cache.get("lift", "fp3") == "c"

    def test_zero_capacity_stores_nothing(self):
        cache = StageCache(capacity=0)
        cache.put("lift", "fp1", "a")
        assert len(cache) == 0
        assert cache.get("lift", "fp1") is None

    def test_stats_and_clear(self):
        cache = StageCache(capacity=4)
        cache.put("rank", "fp", "a")
        assert cache.stats()["entries"] == 1
        assert cache.stats()["rank"] == 1
        cache.clear()
        assert len(cache) == 0


class TestClioEngine:
    def test_clio_engine_matches_baseline(self, mapper_args):
        from repro.baseline.clio import RICBasedMapper

        source, target, correspondences = mapper_args
        result = SemanticMapper(
            source,
            target,
            correspondences,
            options=DiscoveryOptions(engine="clio"),
        ).discover()
        baseline = RICBasedMapper(
            source.schema, target.schema, correspondences
        ).discover()
        assert _tgds(result) == _tgds(baseline)
        assert tuple(result.stage_fingerprints) == CLIO_STAGE_NAMES
        assert "time_clio_s" in result.stats

    def test_clio_runs_are_cached(self, mapper_args):
        options = DiscoveryOptions(engine="clio")
        cold = SemanticMapper(*mapper_args, options=options).discover()
        warm = SemanticMapper(*mapper_args, options=options).discover()
        assert cold.stats.get("stage_cache_miss_clio", 0) == 1
        assert warm.stats.get("stage_cache_hit_clio", 0) == 1
        assert _tgds(warm) == _tgds(cold)
        assert warm.notes == cold.notes

    def test_clio_and_semantic_fingerprints_disjoint(self, mapper_args):
        semantic = SemanticMapper(*mapper_args).stage_fingerprints()
        clio = SemanticMapper(
            *mapper_args, options=DiscoveryOptions(engine="clio")
        ).stage_fingerprints()
        assert set(semantic).isdisjoint(clio)

    def test_engine_option_validated(self):
        with pytest.raises(ValueError, match="engine"):
            DiscoveryOptions(engine="prehistoric")

    def test_engine_option_over_the_wire(self):
        options = DiscoveryOptions.from_mapping({"engine": "clio"})
        assert options.engine == "clio"


def test_clear_stage_cache_is_part_of_clear_caches(mapper_args):
    SemanticMapper(*mapper_args).discover()
    clear_stage_cache()
    rerun = SemanticMapper(*mapper_args).discover()
    assert rerun.stats.get("stage_cache_hits", 0) == 0
