"""The always-on span recorder must stay cheap.

Every untraced run carries a :class:`repro.trace.Recorder`. Its cost is
estimated, not raced: the span count of a traced chain-12 run times the
measured cost of one recorder span, as a fraction of the untraced wall
time. Two raw wall-clock readings of the same few-millisecond run differ
by more than the quantity measured; the estimate does not.
"""

from __future__ import annotations

import time

import repro.perf as perf
from repro.datasets.synthetic import chain_scenario
from repro.discovery.engine.cache import clear_stage_cache
from repro.discovery.mapper import SemanticMapper
from repro.trace import Recorder, Tracer

#: Ceiling on the estimated span cost, as a fraction of untraced time.
OVERHEAD_LIMIT = 0.05

#: Chain length: the marked classes sit at the two ends of the chain.
CHAIN_LENGTH = 12


def _span_cost_seconds(iterations: int = 100_000) -> float:
    recorder = Recorder()
    start = time.perf_counter()
    with recorder.span("outer"):
        for _ in range(iterations):
            with recorder.span("bench"):
                pass
    return (time.perf_counter() - start) / iterations


def test_untraced_span_overhead_under_limit():
    scenario = chain_scenario(CHAIN_LENGTH, span=CHAIN_LENGTH)
    perf.clear_caches()
    # Warm the memos, then drop the stage cache: a stage full hit would
    # skip the pipeline the spans instrument and shrink the denominator
    # to microseconds.
    SemanticMapper(*scenario).discover()
    clear_stage_cache()
    start = time.perf_counter()
    SemanticMapper(*scenario).discover()
    untraced_seconds = time.perf_counter() - start

    tracer = Tracer(explain=True)
    SemanticMapper(*scenario).discover(tracer=tracer)
    assert tracer.span_count >= 1

    span_cost = _span_cost_seconds()
    estimated = tracer.span_count * span_cost / untraced_seconds
    assert estimated < OVERHEAD_LIMIT, (
        f"{tracer.span_count} spans x {span_cost * 1e9:.0f} ns "
        f"over {untraced_seconds:.4f}s = {estimated:.2%}"
    )
