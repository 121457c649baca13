"""A rewrite holds its survivors, not its candidates; a plan holds rules.

``rewrite_query`` merges each chased and minimized candidate into the
antichain of maximal rewritings as soon as it is produced, so a call's
memory peak is a handful of queries, not every candidate of its
enumeration. On ``chain@30`` and ``isa_fan@30`` every rewrite reaches
its 256-candidate limit and one rewriting survives. Holding the
candidate list until a batch prune peaked at 1,984–2,277 traced KiB per
call on Python 3.11; streaming them into the antichain peaks at
526–544 KiB.

Between calls, a schema's rewrite plan keeps its inverse rules indexed
by head predicate, and nothing per query: the copies renamed apart for
each atom occurrence are rebuilt per call. Keeping those copies made
the plans hold about 1,250 traced KiB after a cold pass over the 34
paper cases; the rule index alone holds about 234 KiB.
"""

import gc
import tracemalloc

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.datasets.registry import load_all_datasets
from repro.discovery import translate
from repro.discovery.engine.cache import clear_stage_cache
from repro.discovery.mapper import SemanticMapper
from repro.queries.rewrite import clear_rewrite_caches

#: Traced KiB a single ``rewrite_query`` call may add at its peak.
MAX_PEAK_KIB = 1024

#: Traced KiB the rewrite plans may hold after a cold paper pass.
MAX_PLAN_KIB = 512


@pytest.mark.parametrize("family", ["chain", "isa_fan"])
def test_rewrite_query_peak(family, monkeypatch):
    _, (source, target, correspondences) = synthetic.scale_point(family, 30)
    peaks = []
    rewrite_query = translate.rewrite_query

    def measured(*args, **kwargs):
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = rewrite_query(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
        peaks.append((peak - base) / 1024)
        return result

    monkeypatch.setattr(translate, "rewrite_query", measured)
    perf.clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        SemanticMapper(source, target, correspondences).discover()
    finally:
        tracemalloc.stop()
    assert peaks, "discovery made no rewrite"
    assert max(peaks) <= MAX_PEAK_KIB, (
        f"a rewrite_query call on {family}@30 peaked at "
        f"{max(peaks):.0f} traced KiB above its start (calls: "
        f"{', '.join(f'{peak:.0f}' for peak in peaks)}); the bound is "
        f"{MAX_PEAK_KIB} KiB"
    )


def test_rewrite_plans_after_a_paper_pass():
    pairs = load_all_datasets()
    perf.clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        for pair in pairs:
            for case in pair.cases:
                SemanticMapper(
                    pair.source, pair.target, case.correspondences
                ).discover()
        # The stage cache and the translation memo hold rewritings, not
        # plans: drop them first so only the plans are left to free.
        clear_stage_cache()
        translate.clear_translation_cache()
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        clear_rewrite_caches()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        perf.clear_caches()
    freed = (before - after) / 1024
    assert freed <= MAX_PLAN_KIB, (
        f"clearing the rewrite plans after a cold paper pass freed "
        f"{freed:.0f} traced KiB; the bound is {MAX_PLAN_KIB} KiB"
    )
