"""``--job-timeout`` on the service's worker threads.

A job runs discovery on a :class:`~repro.service.jobs.JobQueue` worker
thread under the service's ``BatchPolicy``. The limit is a cooperative
deadline checked by discovery's search loops, so it stops the run on
that thread: a synchronous request whose job it stopped gets a 504 with
the failure record, and the worker goes on to serve the next job.
"""

import time

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.exceptions import ScenarioTimeout
from repro.service.client import ServiceClient
from repro.service.server import MappingService, ReproServer, ServiceConfig
from repro.service.wire import semantics_to_wire

LIMIT = 0.3
#: How far past its limit a stopped run may answer.
SLACK = 0.5

DBLP_CASE = {"dataset": "DBLP", "case": "dblp-article-in-journal"}


def _chain_510():
    """chain@510 as an inline wire scenario.

    A cold discovery of it runs for over a second unbounded.
    """
    _, (source, target, correspondences) = synthetic.scale_point(
        "chain", 510
    )
    return {
        "id": "chain@510",
        "source": semantics_to_wire(source),
        "target": semantics_to_wire(target),
        "correspondences": [
            str(corr).replace("↔", "<->") for corr in correspondences
        ],
    }


@pytest.fixture
def server():
    config = ServiceConfig(workers=1, job_timeout_seconds=LIMIT)
    with ReproServer(config) as running:
        yield running


def test_timed_out_job_is_a_504_and_the_worker_serves_on(server):
    client = ServiceClient(server.url)
    request = {"scenario": _chain_510(), "use_cache": False}
    perf.clear_caches()
    start = time.perf_counter()
    status, payload = client.request("POST", "/discover", request)
    wall = time.perf_counter() - start

    assert status == 504, payload
    assert payload["status"] == "error"
    error = payload["error"]
    assert error["type"] == ScenarioTimeout.__name__
    assert error["scenario_id"] == "chain@510"
    assert f"{LIMIT}s wall-clock limit" in error["message"]
    assert error["elapsed_seconds"] < LIMIT + SLACK
    assert wall < LIMIT + SLACK

    # The one worker thread survived the timeout and runs the next job.
    answer = client.discover(DBLP_CASE)
    assert answer["status"] == "ok"
    assert answer["result"]["mapping"]["candidates"]
    assert server.service.metrics.value("jobs_failed_total") == 1
    assert server.service.metrics.value("jobs_completed_total") == 1


def _mapping_document(source: str, target: str, covered: str) -> dict:
    from repro.correspondences import Correspondence
    from repro.mappings import MappingCandidate, MappingSet
    from repro.mappings.serialize import mapping_set_to_dict
    from repro.queries.parser import parse_query

    return mapping_set_to_dict(
        MappingSet.of(
            [
                MappingCandidate(
                    parse_query(source),
                    parse_query(target),
                    (Correspondence.parse(covered),),
                )
            ]
        )
    )


@pytest.mark.parametrize("limit, expected", [(1e-9, 504), (None, 200)])
def test_compose_runs_under_the_job_timeout(limit, expected):
    """``/compose`` runs on the handler thread, under the same limit a
    discovery job gets: the rewriting walk checks it, and a composition
    it stops answers 504 with the usual error payload."""
    request = {
        "first": _mapping_document(
            "ans(n) :- person(n)", "ans(n) :- emp(n)",
            "person.name <-> emp.name",
        ),
        "second": _mapping_document(
            "ans(n) :- emp(n)", "ans(n) :- worker(n)",
            "emp.name <-> worker.name",
        ),
    }
    service = MappingService(
        ServiceConfig(workers=1, job_timeout_seconds=limit)
    )
    try:
        status, payload = service.handle_compose(request)
    finally:
        service.close()
    assert status == expected, payload
    if expected == 504:
        assert payload["status"] == "error"
        assert payload["error"]["type"] == ScenarioTimeout.__name__
        assert "scenario 'compose' exceeded" in payload["error"]["message"]
        assert service.metrics.value("compositions_total") == 0
    else:
        assert payload["composed"] == 1
