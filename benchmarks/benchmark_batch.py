"""Batch discovery benchmark: shared caches, warm speedup, parallel fan-out.

Not a paper exhibit — this measures the shared-computation layer itself:

* chain-12 discovery cold (fresh objects, every cache emptied) versus
  warm, asserting the ≥2x speedup the layer exists to deliver (in
  practice it is orders of magnitude);
* byte-identical TGD output across cold / warm runs and across
  ``workers=1`` / ``workers=2`` batches;
* candidate counts on the paper scenarios pinned to
  ``repro.perf.invariants`` — caching must never change results;
* per-phase wall times from the trace exhibit plus the untraced span
  overhead estimate (must stay under ``TRACE_OVERHEAD_LIMIT``);
* the ``BENCH_discovery.json`` report, written to the repo root.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import repro.perf as perf
from repro.discovery.batch import discover_many
from repro.discovery.mapper import SemanticMapper
from repro.perf.bench import (
    TRACE_OVERHEAD_LIMIT,
    _paper_scenarios,
    _tgds,
    build_chain_scenario,
    run_benchmarks,
)
from repro.perf.invariants import EXPECTED_CANDIDATE_COUNTS
from repro.trace import TRACE_FORMAT, Tracer

REPORT_PATH = pathlib.Path(__file__).parent.parent / "BENCH_discovery.json"


@pytest.fixture(scope="module")
def bench_report():
    """One full bench run per session, persisted like ``repro bench``."""
    report, failures = run_benchmarks(workers=2)
    report["failures"] = failures
    REPORT_PATH.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return report


def test_report_written_with_timings_and_counters(bench_report):
    on_disk = json.loads(REPORT_PATH.read_text(encoding="utf-8"))
    rows = on_disk["paper_scenarios"]["scenarios"]
    assert len(rows) == len(EXPECTED_CANDIDATE_COUNTS)
    for row in rows:
        assert row["wall_seconds"] >= 0
        assert "translate_cache_hits" in row["counters"]
        assert "dijkstra_cache_hits" in row["counters"]


def test_no_failures(bench_report):
    assert bench_report["failures"] == []


def test_chain12_warm_speedup(bench_report):
    chain = bench_report["chain"]
    assert chain["chain_length"] == 12
    assert chain["warm_speedup"] >= 2.0, chain


def test_candidate_counts_match_invariants(bench_report):
    counts = {
        row["scenario"]: row["candidates"]
        for row in bench_report["paper_scenarios"]["scenarios"]
    }
    assert counts == EXPECTED_CANDIDATE_COUNTS


def test_trace_exhibit_has_phase_timings(bench_report):
    """BENCH_discovery.json carries per-phase wall times from the trace."""
    trace = bench_report["trace"]
    assert trace["span_count"] >= 1
    for phase in ("discover", "lift", "target_csgs", "rank"):
        assert phase in trace["phase_seconds"], trace["phase_seconds"]
        assert trace["phase_seconds"][phase] >= 0
    assert trace["overhead_limit"] == TRACE_OVERHEAD_LIMIT
    assert trace["estimated_overhead_fraction"] < TRACE_OVERHEAD_LIMIT, trace


def test_trace_json_export_round_trips():
    """``Tracer.to_json`` yields the document the report is built from."""
    source, target, correspondences = build_chain_scenario(length=4)
    tracer = Tracer(explain=True)
    SemanticMapper(source, target, correspondences).discover(tracer=tracer)
    document = json.loads(tracer.to_json())
    assert document["format"] == TRACE_FORMAT
    assert document["explain"] is True
    assert document["spans"][0]["name"] == "discover"


def test_modes_byte_identical():
    """Cold and warm discovery print the same TGDs."""
    source, target, correspondences = build_chain_scenario(length=4)
    perf.clear_caches()
    cold = _tgds(SemanticMapper(source, target, correspondences).discover())
    warm = _tgds(SemanticMapper(source, target, correspondences).discover())
    assert warm == cold


def test_parallel_batch_byte_identical():
    scenarios = [scenario for _, scenario in _paper_scenarios()]
    serial = discover_many(scenarios, workers=1)
    parallel = discover_many(scenarios, workers=2)
    assert [sid for sid, _ in serial.results] == [
        sid for sid, _ in parallel.results
    ]
    for (_, serial_result), (_, parallel_result) in zip(
        serial.results, parallel.results
    ):
        assert _tgds(serial_result) == _tgds(parallel_result)


def test_batch_discovery_timing(benchmark):
    """Wall time of a warm whole-corpus serial batch."""
    scenarios = [scenario for _, scenario in _paper_scenarios()]
    discover_many(scenarios, workers=1)  # warm the caches

    def run():
        return discover_many(scenarios, workers=1)

    batch = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(batch) == len(scenarios)
    # Warm, the stage cache answers every scenario at the rank stage,
    # so translation is never reached.
    assert batch.stats["stage_cache_hit_rank"] == len(scenarios)
