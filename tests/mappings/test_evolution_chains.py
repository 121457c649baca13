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
* re-discovering a structurally identical hop reports no churn;
* the serialized raw and pruned compositions match pinned digests.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datasets.instances import generate_instance
from repro.datasets.synthetic import evolution_chain
from repro.discovery import Scenario, rediscover
from repro.mappings import certain_rows, compose, equivalent, exchange
from repro.mappings.diff import diff_candidates
from repro.mappings.expression import deduplicate_candidates
from repro.mappings.serialize import dump_mapping_set

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


#: SHA-256 of ``dump_mapping_set`` of each chain's raw and pruned
#: composition, recorded from the earlier composition code (which
#: unfolded premises with an enumerator of its own).
COMPOSED_DIGESTS = {
    "chain-L2-S2-H2": (
        "ceeb314f62ee30b36acfa258a1119e9ab019d53479729a3ecdbdfc66a6ab2ffc",
        "ceeb314f62ee30b36acfa258a1119e9ab019d53479729a3ecdbdfc66a6ab2ffc",
    ),
    "chain-L3-S2-H2": (
        "eada1bbc1c33d72a1b12080f67d30e054152586227679512ae4a0f634382d25c",
        "eada1bbc1c33d72a1b12080f67d30e054152586227679512ae4a0f634382d25c",
    ),
    "chain-L3-S3-H2": (
        "cf218c9781be82b15277807acf38ba6432f5b24d55ddaa523246c39205101b81",
        "cf218c9781be82b15277807acf38ba6432f5b24d55ddaa523246c39205101b81",
    ),
    "chain-L4-S3-H2": (
        "a015b782c438c667b580a78ffe1c1f0a031df786277b05995997c7520ef8d180",
        "a015b782c438c667b580a78ffe1c1f0a031df786277b05995997c7520ef8d180",
    ),
    "chain-L5-S4-H2": (
        "a9f6f989f230d6e86c3a9344ff5a9336c20b1d40818567cf1747f62a85c55fa7",
        "a9f6f989f230d6e86c3a9344ff5a9336c20b1d40818567cf1747f62a85c55fa7",
    ),
    "chain-L2-S2-H3": (
        "ceeb314f62ee30b36acfa258a1119e9ab019d53479729a3ecdbdfc66a6ab2ffc",
        "ceeb314f62ee30b36acfa258a1119e9ab019d53479729a3ecdbdfc66a6ab2ffc",
    ),
    "isa_fan-L2-S2-H2": (
        "0cd90c9dc3ac85b0773723951b97ff79058197ad45d8cc3027f8554116290262",
        "0cd90c9dc3ac85b0773723951b97ff79058197ad45d8cc3027f8554116290262",
    ),
    "isa_fan-L3-S2-H2": (
        "28c850c13179e82f9b42ed1f426831ab79cb65eaa22d4d3a10a80e9baa285bc8",
        "28c850c13179e82f9b42ed1f426831ab79cb65eaa22d4d3a10a80e9baa285bc8",
    ),
    "isa_fan-L3-S3-H2": (
        "b3bff20d76626b92bfe36139f8a19bbab5c4b7b4743c461fef1d92eba521a692",
        "b3bff20d76626b92bfe36139f8a19bbab5c4b7b4743c461fef1d92eba521a692",
    ),
    "isa_fan-L4-S3-H2": (
        "b93c8cf2cae2aa32361972e9878b1189e5c84b7d1608d4eab8fbf04e5effa4ea",
        "b93c8cf2cae2aa32361972e9878b1189e5c84b7d1608d4eab8fbf04e5effa4ea",
    ),
    "isa_fan-L2-S2-H3": (
        "0cd90c9dc3ac85b0773723951b97ff79058197ad45d8cc3027f8554116290262",
        "0cd90c9dc3ac85b0773723951b97ff79058197ad45d8cc3027f8554116290262",
    ),
}


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


def test_composition_output_is_pinned(evolved, request):
    _, raw, composed, _, _ = evolved
    point = request.node.callspec.params["evolved"]
    assert tuple(
        hashlib.sha256(dump_mapping_set(mapping).encode()).hexdigest()
        for mapping in (raw, composed)
    ) == COMPOSED_DIGESTS[_chain_id(point)]


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
