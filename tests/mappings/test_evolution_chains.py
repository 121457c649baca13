"""Composition of per-hop mappings against direct discovery.

Every version of an evolution chain ``V0 → V1 → ... → Vn``
(:func:`repro.datasets.synthetic.evolution_chain`) exposes the same
tables, so each hop's mapping can be discovered on its own and the hop
mappings composed into one ``V0 → Vn`` set. For every chain of the
sweep, across both evolution families and including 3-hop chains
(``compose`` folds left to right):

* the composed mapping is logically equivalent to discovering
  ``V0 → Vn`` directly, and data exchanged through it has the same
  certain answers as data exchanged through the direct mapping;
* semantic deduplication of the unpruned composed set drops only
  candidates equivalent to a kept one;
* re-discovering a structurally identical hop reports no churn.
"""

from __future__ import annotations

import pytest

from repro.datasets.instances import generate_instance
from repro.datasets.synthetic import evolution_chain
from repro.discovery import Scenario, rediscover
from repro.mappings import certain_rows, compose, equivalent, exchange
from repro.mappings.diff import diff_candidates
from repro.mappings.expression import deduplicate_candidates

#: Rows generated per table for the certain-answer check.
ROWS_PER_TABLE = 3

#: ``(family, length, span, hops)`` of every chain.
SWEEP = (
    ("chain", 2, 2, 2),
    ("chain", 3, 2, 2),
    ("chain", 3, 3, 2),
    ("chain", 4, 3, 2),
    ("chain", 5, 4, 2),
    ("chain", 2, 2, 3),
    ("isa_fan", 2, 2, 2),
    ("isa_fan", 3, 2, 2),
    ("isa_fan", 3, 3, 2),
    ("isa_fan", 4, 3, 2),
    ("isa_fan", 2, 2, 3),
)


def _chain_id(point) -> str:
    family, length, span, hops = point
    return f"{family}-L{length}-S{span}-H{hops}"


@pytest.fixture(scope="module", params=SWEEP, ids=_chain_id)
def evolved(request):
    """One chain: its hop results, raw and pruned compositions, direct run."""
    family, length, span, hops = request.param
    chain = evolution_chain(family, length, hops=hops, span=span)
    previous = None
    hop_results = []
    churn = []
    for index in range(chain.hops):
        scenario = Scenario.create(
            f"{chain.chain_id}/hop{index}", *chain.hop(index)
        )
        result = rediscover(previous, scenario).result
        if previous is not None:
            diff = diff_candidates(previous.candidates, result.candidates)
            if not diff.is_empty:
                churn.append(f"hop {index}: {diff.summary()}")
        hop_results.append(result)
        previous = result
    raw = hop_results[0].mappings
    composed = hop_results[0].mappings
    for result in hop_results[1:]:
        raw = compose(raw, result.mappings, prune=False)
        composed = compose(composed, result.mappings)
    direct = Scenario.create(f"{chain.chain_id}/direct", *chain.direct()).run()
    return chain, raw, composed, direct, churn


def test_composed_is_equivalent_to_direct(evolved):
    _, _, composed, direct, _ = evolved
    assert len(composed) >= 1
    assert equivalent(composed, direct.candidates)


def test_certain_answers_equal_under_exchange(evolved):
    chain, _, composed, direct, _ = evolved
    instance = generate_instance(
        chain.versions[0].schema, rows_per_table=ROWS_PER_TABLE
    )
    final_schema = chain.versions[-1].schema
    via_composed = exchange(composed.to_tgds("C"), instance, final_schema)
    via_direct = exchange(direct.mappings.to_tgds("D"), instance, final_schema)
    for table in final_schema.tables:
        assert certain_rows(via_composed, table) == certain_rows(
            via_direct, table
        ), table


def test_dedup_drops_only_equivalent_candidates(evolved):
    _, raw, _, _, _ = evolved
    candidates = list(raw)
    kept = deduplicate_candidates(list(candidates))
    for candidate in candidates:
        if candidate in kept:
            continue
        assert any(
            set(candidate.covered) == set(survivor.covered)
            and equivalent(survivor, candidate)
            for survivor in kept
        ), candidate


def test_identical_hops_rediscover_without_churn(evolved):
    _, _, _, _, churn = evolved
    assert churn == []
