"""End-to-end explain/trace behaviour through the discovery pipeline."""

import copy

import pytest

import repro.perf as perf
from repro.datasets.paper_examples import employee_example, partof_example
from repro.datasets.registry import load_all_datasets
from repro.discovery import (
    DiscoveryOptions,
    Scenario,
    SemanticMapper,
    discover_many,
    discover_mappings,
)
from repro.trace import TRACE_FORMAT, Tracer
from tests.compute_pool import run_in_compute_pool, wire_document


def explain_result(scenario, **option_changes):
    options = DiscoveryOptions(explain=True).replace(**option_changes)
    return SemanticMapper(
        scenario.source,
        scenario.target,
        scenario.correspondences,
        options=options,
    ).discover()


def span_names(span):
    yield span["name"]
    for child in span.get("children", ()):
        yield from span_names(child)


def strip_timings(document):
    document = copy.deepcopy(document)

    def scrub(span):
        span.pop("elapsed_s", None)
        for child in span.get("children", ()):
            scrub(child)

    for span in document["spans"]:
        scrub(span)
    return document


class TestExplainMode:
    def test_partof_prune_recorded(self):
        result = explain_result(partof_example(target_is_partof=True))
        assert result.trace is not None
        rules = {event["rule"] for event in result.trace["prunes"]}
        assert "partOf" in rules
        partof = [
            event
            for event in result.trace["prunes"]
            if event["rule"] == "partOf"
        ]
        for event in partof:
            assert event["phase"] == "pair_filter"
            assert event["source_csg"]
            assert event["target_csg"]
            assert event["detail"]

    def test_disjointness_prune_recorded(self):
        result = explain_result(employee_example(disjoint_subclasses=True))
        rules = {event["rule"] for event in result.trace["prunes"]}
        assert any(rule.startswith("disjointness") for rule in rules)

    def test_prunes_mirror_eliminations(self):
        result = explain_result(partof_example(target_is_partof=True))
        for event in result.trace["prunes"]:
            if event["phase"] == "pair_filter":
                assert any(
                    event["detail"] in text for text in result.eliminations
                )

    def test_span_tree_covers_pipeline(self):
        result = explain_result(partof_example(target_is_partof=True))
        (root,) = result.trace["spans"]
        names = set(span_names(root))
        assert {
            "discover",
            "lift",
            "target_csgs",
            "source_search",
            "rank",
        } <= names
        assert root["name"] == "discover"
        assert result.trace["format"] == TRACE_FORMAT

    def test_rank_provenance_on_result(self):
        result = explain_result(partof_example(target_is_partof=True))
        assert len(result.rank_provenance) == len(result.candidates)
        best = result.rank_provenance[0]
        assert best["rank"] == 1
        assert "covered" in best
        assert result.trace["provenance"] == result.rank_provenance

    def test_stats_carry_span_seconds(self):
        result = explain_result(partof_example(target_is_partof=True))
        names = {
            name for span in result.trace["spans"] for name in span_names(span)
        }
        for name in names:
            assert result.stats[f"time_{name}_s"] >= 0
            assert result.stats[f"self_{name}_s"] >= 0
        assert {"discover", "rank"} <= names

    def test_trace_without_explain_skips_prunes(self):
        scenario = partof_example(target_is_partof=True)
        result = SemanticMapper(
            scenario.source,
            scenario.target,
            scenario.correspondences,
            options=DiscoveryOptions(trace=True),
        ).discover()
        assert result.trace is not None
        assert result.trace["explain"] is False
        assert result.trace["prunes"] == []
        assert result.rank_provenance == []

    def test_untraced_by_default(self):
        scenario = partof_example(target_is_partof=True)
        result = SemanticMapper(
            scenario.source, scenario.target, scenario.correspondences
        ).discover()
        assert result.trace is None
        assert result.rank_provenance == []


class TestDeterminism:
    def test_trace_stable_across_runs_modulo_timings(self):
        scenario = partof_example(target_is_partof=True)
        first = explain_result(scenario)
        second = explain_result(scenario)
        assert strip_timings(first.trace) == strip_timings(second.trace)

    def test_candidates_unchanged_by_explain(self):
        """Explain runs bypass the stage cache; on every paper case they
        must agree with a cold and a warm (cache-replayed) plain run."""

        def outputs(result):
            return (
                [str(c.to_tgd(f"M{i}")) for i, c in enumerate(result, 1)],
                result.candidates,
                result.notes,
                result.eliminations,
            )

        cases = [
            (pair, case) for pair in load_all_datasets() for case in pair.cases
        ]
        assert len(cases) == 34
        for pair, case in cases:
            perf.clear_caches()
            args = (pair.source, pair.target, case.correspondences)
            cold = SemanticMapper(*args).discover()
            warm = SemanticMapper(*args).discover()
            assert warm.stats.get("stage_cache_hit_rank", 0) == 1
            explained = SemanticMapper(
                *args, options=DiscoveryOptions(explain=True)
            ).discover()
            assert explained.trace is not None
            assert outputs(explained) == outputs(cold), case.case_id
            assert outputs(explained) == outputs(warm), case.case_id


class TestCallerOwnedTracer:
    def test_discover_mappings_accepts_tracer(self):
        scenario = partof_example(target_is_partof=True)
        tracer = Tracer(explain=True)
        result = discover_mappings(
            scenario.source,
            scenario.target,
            scenario.correspondences,
            trace=tracer,
        )
        assert tracer.span_count > 0
        assert tracer.prunes
        assert result.trace is not None

    def test_tracer_accumulates_across_runs(self):
        scenario = partof_example(target_is_partof=True)
        tracer = Tracer()
        for _ in range(2):
            discover_mappings(
                scenario.source,
                scenario.target,
                scenario.correspondences,
                trace=tracer,
            )
        assert len(tracer.roots) == 2

    def test_stats_count_only_this_runs_spans(self):
        scenario = partof_example(target_is_partof=True)
        tracer = Tracer()
        results = [
            discover_mappings(
                scenario.source,
                scenario.target,
                scenario.correspondences,
                trace=tracer,
            )
            for _ in range(2)
        ]
        for result, root in zip(results, tracer.roots):
            assert result.stats["time_discover_s"] == pytest.approx(
                root.elapsed_seconds, abs=1e-6
            )


class TestBatchEquivalence:
    @pytest.fixture(scope="class")
    def scenarios(self):
        specs = [
            ("partof", partof_example(target_is_partof=True)),
            ("employee", employee_example(disjoint_subclasses=True)),
            ("plain", partof_example(target_is_partof=False)),
        ]
        return [
            Scenario.create(
                scenario_id,
                example.source,
                example.target,
                example.correspondences,
                options=DiscoveryOptions(explain=True),
            )
            for scenario_id, example in specs
        ]

    def test_parallel_serial_equivalent_with_explain(self, scenarios):
        serial = discover_many(scenarios)
        parallel = run_in_compute_pool(scenarios)
        assert not serial.failures
        assert len(serial) == len(parallel) == 3
        for sid, s_result in serial.results:
            kind, p_wire = parallel[sid]
            assert kind == "ok", p_wire
            s_wire = wire_document(s_result)
            assert s_wire["mapping"] == p_wire["mapping"]
            # The trace carries the rank provenance too.
            assert strip_timings(s_wire["trace"]) == strip_timings(
                p_wire["trace"]
            )
