"""Discovery and the mapping algebra leave no reference cycles behind.

An object in a reference cycle outlives its last use until the cycle
collector's next pass finds it, so a search that builds one per call
keeps its bindings, trail and renamed rules alive, and the collector
busy, long after the call returned. Each operation here runs once to
warm up (imports, plans and caches that live on), then again with the
collector off; the collector must then find nothing unreachable.
"""

from __future__ import annotations

import gc

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.datasets.instances import generate_instance
from repro.datasets.registry import load_all_datasets
from repro.discovery import (
    DiscoveryOptions,
    Scenario,
    SemanticMapper,
    rediscover,
)
from repro.mappings import compose, exchange, implies, minimize_mapping_set
from repro.mappings.verify import verify_mappings

EXPLAIN = DiscoveryOptions(explain=True)


def unreachable_after(operation) -> int:
    """Objects the collector finds unreachable after one warm ``operation``."""
    operation()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        operation()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _paper_pass(options=None):
    for pair in load_all_datasets():
        for case in pair.cases:
            perf.clear_caches()
            SemanticMapper(
                pair.source, pair.target, case.correspondences, options
            ).discover()


@pytest.mark.parametrize(
    "options", [None, EXPLAIN], ids=["default", "explain"]
)
def test_cold_paper_pass(options):
    assert unreachable_after(lambda: _paper_pass(options)) == 0


@pytest.mark.parametrize("family", ["chain", "isa_fan", "reified_web"])
def test_cold_synthetic_point(family):
    _, scenario = synthetic.scale_point(family, 60)

    def discover():
        perf.clear_caches()
        SemanticMapper(*scenario).discover()

    assert unreachable_after(discover) == 0


@pytest.fixture(scope="module")
def chain():
    """A 2-hop chain, its hops' scenarios and mappings, and an instance
    of its first version."""
    evolution = synthetic.evolution_chain("chain", 3, 2, 2)
    hops = [
        Scenario.create(f"hop{index}", *evolution.hop(index))
        for index in range(evolution.hops)
    ]
    first, second = (hop.run().mappings for hop in hops)
    instance = generate_instance(evolution.versions[0].schema, 3)
    return evolution, hops, first, second, instance


def test_rediscover(chain):
    _, hops, _, _, _ = chain

    def edit():
        perf.clear_caches()
        rediscover(hops[0].run(), hops[1])

    assert unreachable_after(edit) == 0


@pytest.mark.parametrize("prune", [False, True], ids=["raw", "pruned"])
def test_compose(chain, prune):
    _, _, first, second, _ = chain
    assert unreachable_after(lambda: compose(first, second, prune=prune)) == 0


def test_implies_and_minimize(chain):
    _, _, first, second, _ = chain
    composed = compose(first, second, prune=False)
    assert unreachable_after(lambda: implies(composed, composed)) == 0
    assert unreachable_after(lambda: minimize_mapping_set(composed)) == 0


def test_exchange_and_verify(chain):
    evolution, _, first, second, instance = chain
    tgds = compose(first, second).to_tgds("C")
    target_schema = evolution.versions[-1].schema
    target = exchange(tgds, instance, target_schema)
    assert (
        unreachable_after(lambda: exchange(tgds, instance, target_schema))
        == 0
    )
    assert (
        unreachable_after(lambda: verify_mappings(tgds, instance, target))
        == 0
    )
