"""A rewrite holds its survivors, not its candidates.

``rewrite_query`` merges each chased and minimized candidate into the
antichain of maximal rewritings as soon as it is produced, so a call's
memory peak is a handful of queries, not every candidate of its
enumeration. On ``chain@30`` and ``isa_fan@30`` every rewrite reaches
its 256-candidate limit and one rewriting survives. Holding the
candidate list until a batch prune peaked at 1,984–2,277 traced KiB per
call on Python 3.11; streaming them into the antichain peaks at
526–544 KiB.
"""

import gc
import tracemalloc

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.discovery import translate
from repro.discovery.mapper import SemanticMapper

#: Traced KiB a single ``rewrite_query`` call may add at its peak.
MAX_PEAK_KIB = 1024


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
