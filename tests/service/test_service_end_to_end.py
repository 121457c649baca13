"""The PR's acceptance scenario, end to end over real HTTP.

With 2 workers and 20 concurrent ``POST /discover`` requests spread
over 5 distinct scenarios (each repeated 4×), every request must come
back 200, the 15 repeats must be served from the result cache (either a
stored-result hit or a single-flight join onto the in-flight identical
job), and every response's mapping payload must be byte-identical to
what a serial :func:`repro.discovery.batch.discover_many` run produces
for the same scenarios.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.discovery.batch import discover_many
from repro.service.client import ServiceClient
from repro.service.server import ReproServer, ServiceConfig
from repro.service.wire import result_to_wire, scenario_from_wire

#: Five distinct discovery scenarios drawn from the registered datasets.
CASES = [
    {"dataset": "DBLP", "case": "dblp-article-in-journal"},
    {"dataset": "DBLP", "case": "dblp-book-publisher"},
    {"dataset": "Mondial", "case": "mondial-city-in-country"},
    {"dataset": "Hotel", "case": "hotel-room-of-hotel"},
    {"dataset": "UT", "case": "ut-professor-teaches-course"},
]

#: 20 requests: each of the 5 cases appears 4 times, interleaved so
#: repeats land while the first occurrence may still be in flight.
REQUESTS = [CASES[i % len(CASES)] for i in range(20)]


@pytest.fixture(scope="module")
def serial_mappings():
    """Reference payloads from a plain serial discover_many run."""
    scenarios = [scenario_from_wire(spec) for spec in CASES]
    batch = discover_many(scenarios)
    assert not batch.failures
    return {
        scenario_id: json.dumps(
            result_to_wire(result)["mapping"], sort_keys=True
        )
        for scenario_id, result in batch.results
    }


class TestAcceptance:
    def test_twenty_concurrent_discovers_share_five_runs(
        self, serial_mappings
    ):
        config = ServiceConfig(workers=2, queue_capacity=64)
        with ReproServer(config) as server:
            client = ServiceClient(server.url)

            with ThreadPoolExecutor(max_workers=20) as pool:
                responses = list(
                    pool.map(
                        lambda spec: client.request(
                            "POST", "/discover", {"scenario": spec}
                        ),
                        REQUESTS,
                    )
                )

            # 1. Every one of the 20 concurrent requests succeeded.
            statuses = [status for status, _ in responses]
            assert statuses == [200] * 20
            for _, payload in responses:
                assert payload["status"] == "ok"
                assert payload["result"]["mapping"]["candidates"]

            # 2. The 15 repeats were served from the cache: at most one
            #    discovery per distinct scenario, everything else a
            #    stored-result hit or a coalesced join.
            values = client.metrics_values()
            assert values["repro_service_cache_hits_total"] >= 15
            assert values["repro_service_discovery_invocations_total"] <= 5
            cached = sum(
                1 for _, payload in responses if payload["cached"]
            )
            assert cached >= 15

            # 3. Byte-identical to the serial discover_many output —
            #    cached, coalesced, and fresh responses alike.
            for spec, (_, payload) in zip(REQUESTS, responses):
                scenario_id = payload["scenario_id"]
                served = json.dumps(
                    payload["result"]["mapping"], sort_keys=True
                )
                assert served == serial_mappings[scenario_id], (
                    f"served mapping for {scenario_id} differs from the "
                    f"serial reference"
                )

    def test_repeat_traffic_after_warmup_is_all_hits(self):
        config = ServiceConfig(workers=2)
        with ReproServer(config) as server:
            client = ServiceClient(server.url)
            for spec in CASES:
                assert client.discover(spec)["status"] == "ok"
            warm = client.metrics_values()
            for spec in CASES:
                payload = client.discover(spec)
                assert payload["cached"] is True
            after = client.metrics_values()
            assert (
                after["repro_service_discovery_invocations_total"]
                == warm["repro_service_discovery_invocations_total"]
            )
            assert (
                after["repro_service_cache_hits_total"]
                - warm.get("repro_service_cache_hits_total", 0.0)
                == len(CASES)
            )
