"""Property: a run its deadline cuts short poisons no cache.

The deadline is checked only at the loop heads of discovery's searches
(:mod:`repro.deadline`), never inside a memo update, so whatever a cut
run leaves in the caches is whole. To cut runs at every reachable
point, the deadline module's clock is patched to tick once per read:
a deadline of ``k`` seconds then expires at exactly the ``k``-th check.

Every paper case runs cut at its ``k``-th check and then again without
a deadline. The second run must return the cold run's candidates and
notes. Its counters cannot match a cold run's, since the cut run
legitimately filled caches for the work it finished; instead, once
every case has rerun, a further pass must count exactly what a pass
after an uncut cold pass counts, so the caches end in the same state.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.deadline as deadline_module
import repro.perf as perf
from repro.datasets.registry import load_all_datasets
from repro.discovery.mapper import SemanticMapper
from repro.exceptions import ScenarioTimeout


def _run(pair, case):
    return SemanticMapper(
        pair.source, pair.target, case.correspondences
    ).discover()


def _outcome(result):
    tgds = [
        str(candidate.to_tgd(f"M{index}"))
        for index, candidate in enumerate(result.candidates, start=1)
    ]
    return tgds, list(result.notes)


def _counters(result):
    return {
        name: value
        for name, value in result.stats.items()
        if not name.startswith(("time_", "self_"))
    }


@contextmanager
def _expiring_at_check(k):
    """A deadline that expires at the ``k``-th check; yields the clock."""
    ticks = itertools.count()
    with patch.object(
        deadline_module, "monotonic", lambda: float(next(ticks))
    ):
        with deadline_module.deadline(k, "cut"):
            yield ticks


def _cold_cases():
    """Freshly built paper cases with cleared process-wide caches.

    Fresh objects matter: reasoner memos live on the model objects,
    which ``clear_caches()`` does not reach.
    """
    perf.clear_caches()
    return [
        (pair, case) for pair in load_all_datasets() for case in pair.cases
    ]


@pytest.fixture(scope="module")
def reference():
    """Cold outcomes and check counts per case, and the counters of a
    pass after them."""
    cases = _cold_cases()
    cold, checks = [], []
    for pair, case in cases:
        with _expiring_at_check(math.inf) as ticks:
            cold.append(_outcome(_run(pair, case)))
        checks.append(next(ticks) - 1)
    warm = [_counters(_run(pair, case)) for pair, case in cases]
    return cold, max(checks), warm


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_cut_runs_leave_caches_whole(reference, data):
    cold, most_checks, warm = reference
    k = data.draw(st.integers(min_value=1, max_value=most_checks), label="k")
    cases = _cold_cases()
    cut = 0
    for index, (pair, case) in enumerate(cases):
        try:
            with _expiring_at_check(k):
                _run(pair, case)
        except ScenarioTimeout:
            cut += 1
        assert _outcome(_run(pair, case)) == cold[index], case.case_id
    assert cut, "no case reached its k-th check"
    after = [_counters(_run(pair, case)) for pair, case in cases]
    assert after == warm


def test_deadline_expires_at_the_kth_check():
    checks = 0
    with pytest.raises(ScenarioTimeout, match="'cut' exceeded"):
        with _expiring_at_check(3):
            while True:
                checks += 1
                deadline_module.check_deadline()
    assert checks == 3
