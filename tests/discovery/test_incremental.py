"""Incremental re-discovery: reuse reporting and byte-identical results."""

import pytest

import repro.perf as perf
from repro.cm import ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.discovery import (
    Rediscovery,
    Scenario,
    rediscover,
    rediscover_many,
)
from repro.discovery.engine import STAGE_NAMES
from repro.semantics import design_schema

#: Small enough to keep the suite fast, large enough for two segments.
SEGMENTS, LENGTH = 2, 3


def segmented_model(name, segments, length, pendants=2):
    """``segments`` disjoint chains; every chain node carries
    ``pendants`` pendant classes (dead-end branches that widen the
    Steiner search without adding candidates)."""
    cm = ConceptualModel(name)
    for seg in range(segments):
        for index in range(length + 1):
            cm.add_class(
                f"S{seg}C{index}",
                attributes=[f"k{index}", f"a{index}", f"b{index}"],
                key=[f"k{index}"],
            )
            for p in range(pendants):
                cm.add_class(
                    f"S{seg}P{index}x{p}",
                    attributes=[f"pk{index}"],
                    key=[f"pk{index}"],
                )
                cm.add_relationship(
                    f"s{seg}pend{index}x{p}",
                    f"S{seg}C{index}",
                    f"S{seg}P{index}x{p}",
                    "0..1",
                    "0..*",
                )
        for index in range(length):
            cm.add_relationship(
                f"s{seg}f{index}",
                f"S{seg}C{index}",
                f"S{seg}C{index + 1}",
                "1..1",
                "0..*",
            )
    return cm


def build_incremental_scenario(segments, length, edited=False):
    """Fresh ``(source, target, correspondences)`` of ``segments``
    disjoint chains, two endpoint correspondences each.

    With ``edited=True``, segment 0's first correspondence moves from
    ``a0`` to ``b0``: a single-correspondence edit. The other segments'
    target CSGs and relevant correspondences (the per-target unit cache
    key) are the same in both variants.
    """
    source = design_schema(
        segmented_model("segmented_src", segments, length), "src"
    )
    target = design_schema(
        segmented_model("segmented_tgt", segments, length), "tgt"
    )
    lines = []
    for seg in range(segments):
        first = "b0" if edited and seg == 0 else "a0"
        lines.append(f"s{seg}c0.{first} <-> s{seg}c0.{first}")
        lines.append(
            f"s{seg}c{length}.a{length} <-> s{seg}c{length}.a{length}"
        )
    correspondences = CorrespondenceSet.parse(lines)
    return source.semantics, target.semantics, correspondences


def _scenario(scenario_id: str, edited: bool = False) -> Scenario:
    source, target, correspondences = build_incremental_scenario(
        SEGMENTS, LENGTH, edited=edited
    )
    return Scenario.create(scenario_id, source, target, correspondences)


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


class TestRediscover:
    def test_identical_rerun_is_full_reuse(self):
        previous = _scenario("base").run()
        outcome = rediscover(previous, _scenario("base"))
        assert isinstance(outcome, Rediscovery)
        assert outcome.full_reuse is True
        assert outcome.unchanged_stages == STAGE_NAMES
        assert outcome.invalidated_stages == ()
        assert outcome.stage_cache_hits >= 1
        assert _tgds(outcome.result) == _tgds(previous)

    def test_edit_reports_invalidation_and_replays_units(self):
        previous = _scenario("base").run()
        outcome = rediscover(previous, _scenario("edited", edited=True))
        # The lift input changed, so every chained stage fingerprint
        # moved — but the untouched segment's per-target unit replays.
        assert outcome.full_reuse is False
        assert outcome.invalidated_stages == STAGE_NAMES
        assert outcome.unit_cache_hits >= SEGMENTS - 1

    def test_rediscover_matches_cold_run_byte_for_byte(self):
        cold = _scenario("cold", edited=True).run()
        perf.clear_caches()
        previous = _scenario("base").run()
        outcome = rediscover(previous, _scenario("edited", edited=True))
        assert _tgds(outcome.result) == _tgds(cold)
        assert len(outcome.result) == len(previous) >= 1
        assert outcome.result.notes == cold.notes
        assert outcome.result.eliminations == cold.eliminations

    def test_previous_can_be_a_plain_fingerprint_mapping(self):
        previous = _scenario("base").run()
        outcome = rediscover(
            dict(previous.stage_fingerprints), _scenario("base")
        )
        assert outcome.full_reuse is True

    def test_previous_can_be_a_rediscovery(self):
        first = rediscover(None, _scenario("base"))
        second = rediscover(first, _scenario("base"))
        assert second.full_reuse is True

    def test_no_previous_reports_all_invalidated(self):
        outcome = rediscover(None, _scenario("base"))
        assert outcome.full_reuse is False
        assert outcome.invalidated_stages == STAGE_NAMES

    def test_report_is_json_friendly(self):
        previous = _scenario("base").run()
        report = rediscover(previous, _scenario("base")).report()
        assert report["full_reuse"] is True
        assert report["unchanged_stages"] == list(STAGE_NAMES)
        assert report["invalidated_stages"] == []
        assert report["candidates"] >= 1
        assert report["elapsed_seconds"] >= 0


class TestRediscoverMany:
    def test_each_scenario_compared_to_its_own_previous(self):
        base = _scenario("a").run()
        outcomes = rediscover_many(
            {"a": base},
            [_scenario("a"), _scenario("b", edited=True)],
        )
        by_id = dict(outcomes)
        assert set(by_id) == {"a", "b"}
        assert by_id["a"].full_reuse is True
        assert by_id["b"].full_reuse is False

    def test_missing_previous_runs_warm_with_empty_baseline(self):
        outcomes = rediscover_many({}, [_scenario("solo")])
        ((scenario_id, outcome),) = outcomes
        assert scenario_id == "solo"
        assert outcome.full_reuse is False
        assert len(outcome.result.candidates) >= 1
