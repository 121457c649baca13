"""Run scenarios through the service's compute processes.

:meth:`repro.service.jobs.ComputePool.run` pickles a scenario into
another process and pickles its outcome back, so tests that hold a
result to its in-process twin across that trip run it here.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.service.jobs import ComputePool


def run_in_compute_pool(scenarios, timeout_seconds=None, processes=2):
    """``{scenario_id: (kind, payload)}``, as ``ComputePool.run`` returns
    it, with ``processes`` scenarios in flight at once."""
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
        scenario.scenario_id: outcome
        for scenario, outcome in zip(scenarios, outcomes)
    }
