"""Run scenarios through the service's compute processes.

:meth:`repro.service.jobs.ComputePool.run` pickles a scenario into
another process, which sends back the result encoded as the service's
wire JSON. Tests that hold a result to its in-process twin across that
trip run it here and compare wire documents.
"""

import json
from concurrent.futures import ThreadPoolExecutor

from repro.service.jobs import ComputePool
from repro.service.wire import result_to_wire


def wire_document(result):
    """An in-process ``DiscoveryResult`` as the JSON a compute process
    would send for it, decoded."""
    return json.loads(json.dumps(result_to_wire(result), sort_keys=True))


def run_in_compute_pool(scenarios, timeout_seconds=None, processes=2):
    """``{scenario_id: (kind, payload)}`` with ``processes`` scenarios in
    flight at once: ``("ok", wire document)`` decoded from the bytes the
    compute process sent, or ``("error", ScenarioFailure)``."""
    pool = ComputePool(processes)
    try:
        with ThreadPoolExecutor(processes) as threads:
            outcomes = list(
                threads.map(
                    lambda scenario: pool.run(scenario, timeout_seconds),
                    scenarios,
                )
            )
    finally:
        pool.shutdown()
    return {
        scenario.scenario_id: (
            (kind, json.loads(payload[1])) if kind == "ok" else (kind, payload)
        )
        for scenario, (kind, payload) in zip(scenarios, outcomes)
    }
