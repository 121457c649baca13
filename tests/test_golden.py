"""Golden outputs: the end-to-end reference every cache is held to.

Discovery has one code path, so there is no uncached mode to compare a
run against. Instead the TGD text of every paper case is pinned by the
digests in ``bench/golden.json["paper"]`` (read here, never written),
and three synthetic families are pinned at 10, 30 and 60 classes by
:data:`SYNTHETIC_DIGESTS`. Those were recorded when cached, uncached and
blind-search runs could still be compared, and all three agreed.

Each case runs cold (``clear_caches()`` first) and then warm in the same
process; both must reproduce the pinned digest, and so must the 34 paper
cases run in the service's two compute processes, which pickle each
scenario over and each result back. The digest rule is the benchmark's
(``bench/workloads.py:tgd_digest``): sha256 over the candidates'
``to_tgd("M<i>")`` lines joined by newlines.

The reified web's mapping stays small at every size, so none of its
rewrites may stop at the enumeration limit (isa_fan's do from 30
classes up, until ``translate`` is exact).
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.datasets.registry import load_all_datasets
from repro.discovery.batch import Scenario
from repro.discovery.mapper import SemanticMapper
from tests.compute_pool import run_in_compute_pool

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "bench" / "golden.json"

#: ``family@requested classes`` → digest of the cold discovery output.
SYNTHETIC_DIGESTS = {
    "chain@10": "da1a4444de1491c8c72dea3341f61cd7afb784155dab3ad09b62114d2341c6a6",
    "chain@30": "6304d7f52494b9d27049f321a8f9db62f3f2bdcf269d42db2e544f653e018bff",
    "chain@60": "6304d7f52494b9d27049f321a8f9db62f3f2bdcf269d42db2e544f653e018bff",
    "isa_fan@10": "9182718c112ba9252166b4f8acceacc5cb5ea3319e8d03a08245a1fe9f99df73",
    "isa_fan@30": "1f186d89b0ae7974c301eb1f5641866096f2ed3fbabc51afe1b17780c832832b",
    "isa_fan@60": "9598a20582c3b0019c38c7e9faedb1eb8b852919b38a08cde419c297fc5cce45",
    "reified_web@10": "19c768ae761580ca6969cbacb3b3e7715396bfaeb5b1b53e99d68a3dc8223acc",
    "reified_web@30": "19c768ae761580ca6969cbacb3b3e7715396bfaeb5b1b53e99d68a3dc8223acc",
    "reified_web@60": "19c768ae761580ca6969cbacb3b3e7715396bfaeb5b1b53e99d68a3dc8223acc",
}


def tgd_digest(result) -> str:
    text = "\n".join(
        str(candidate.to_tgd(f"M{index}"))
        for index, candidate in enumerate(result, start=1)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cold_then_warm(source, target, correspondences):
    perf.clear_caches()
    cold = SemanticMapper(source, target, correspondences).discover()
    warm = SemanticMapper(source, target, correspondences).discover()
    return cold, warm


def test_paper_cases_match_golden_cold_and_warm():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["paper"]
    seen = {}
    for pair in load_all_datasets():
        for case in pair.cases:
            cold, warm = _cold_then_warm(
                pair.source, pair.target, case.correspondences
            )
            assert warm.stats.get("stage_cache_hit_rank", 0) == 1
            seen[f"{pair.name}/{case.case_id}"] = (
                tgd_digest(cold),
                tgd_digest(warm),
            )
    assert len(seen) == 34
    assert sorted(seen) == sorted(golden)
    for key, (cold, warm) in seen.items():
        assert cold == golden[key], f"{key}: cold output drifted"
        assert warm == golden[key], f"{key}: warm output drifted"


def test_paper_cases_match_golden_in_a_parallel_batch():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["paper"]
    scenarios = [
        Scenario.create(
            f"{pair.name}/{case.case_id}",
            pair.source,
            pair.target,
            case.correspondences,
        )
        for pair in load_all_datasets()
        for case in pair.cases
    ]
    outcomes = run_in_compute_pool(scenarios)
    assert [kind for kind, _ in outcomes.values()] == ["ok"] * 34
    digests = {
        key: tgd_digest(result) for key, (_, result) in outcomes.items()
    }
    assert digests == golden


@pytest.mark.parametrize("point", sorted(SYNTHETIC_DIGESTS))
def test_synthetic_families_match_pins_cold_and_warm(point):
    family, classes = point.split("@")
    _, scenario = synthetic.scale_point(family, int(classes))
    cold, warm = _cold_then_warm(*scenario)
    assert tgd_digest(cold) == SYNTHETIC_DIGESTS[point]
    assert tgd_digest(warm) == SYNTHETIC_DIGESTS[point]
    assert len(cold) >= 1
    assert cold.stats.get("bound_prunes", 0) > 0
    if family == "reified_web":
        assert cold.stats.get("rewrite_limit_hits", 0) == 0
