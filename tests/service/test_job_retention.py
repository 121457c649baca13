"""Which job records the service keeps, and what a kept record holds.

A job is pollable at ``GET /jobs/<id>`` only once a 202 response has
handed its id out; a sync request answered inline leaves no record.
A finished job drops its scenario, its fingerprint and its own wait
event.
"""

import gc
import sys
import threading
import time
import weakref

import pytest

import repro.service.jobs as jobs_mod
from repro.service.cache import ResultCache
from repro.service.jobs import _FINISHED, JobQueue
from repro.service.metrics import ServiceMetrics
from repro.service.server import MappingService, ReproServer, ServiceConfig
from repro.service.wire import scenario_from_wire

CASE_A = {"dataset": "DBLP", "case": "dblp-article-in-journal"}
CASE_B = {"dataset": "DBLP", "case": "dblp-book-publisher"}
CASE_C = {"dataset": "Hotel", "case": "hotel-room-of-hotel"}


@pytest.fixture()
def gate(monkeypatch):
    """Hold every discovery run until the test sets the event."""
    release = threading.Event()
    real = jobs_mod.discover_many

    def gated(scenarios, timeout_seconds=None):
        release.wait(30)
        return real(scenarios, timeout_seconds=timeout_seconds)

    monkeypatch.setattr(jobs_mod, "discover_many", gated)
    yield release
    release.set()


def _until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_sync_requests_leave_no_job_record():
    with ReproServer(ServiceConfig(workers=2)) as server:
        service = server.service
        for use_cache in (False, True, True, False, True):
            for case in (CASE_A, CASE_B):
                status, payload = service.handle_discover(
                    {"scenario": case, "use_cache": use_cache}
                )
                assert status == 200, payload
        assert service.metrics.value("cache_hits_total") >= 4
        assert service.jobs._jobs == {}
        _until(lambda: not service.jobs._unfinished)
        for case in (CASE_A, CASE_B):
            _, payload = service.handle_discover({"scenario": case})
            status, _ = service.handle_job(payload["job_id"])
            assert status == 404


def test_ids_handed_out_by_a_202_poll_to_done(gate):
    service = MappingService(ServiceConfig(workers=2))
    try:
        status, accepted = service.handle_discover(
            {"scenario": CASE_A, "mode": "async"}
        )
        assert status == 202 and accepted["status"] == "accepted"
        status, pending = service.handle_discover(
            {"scenario": CASE_B, "timeout_seconds": 0.01}
        )
        assert status == 202 and pending["status"] == "pending"

        joined = {}

        def join_async_job():
            joined["answer"] = service.handle_discover({"scenario": CASE_A})

        joiner = threading.Thread(target=join_async_job)
        joiner.start()
        _until(lambda: service.metrics.value("cache_coalesced_total") == 1)
        gate.set()
        joiner.join(60)
        assert not joiner.is_alive()
        status, answer = joined["answer"]
        assert status == 200
        assert answer["job_id"] == accepted["job_id"]

        _, sync_b = service.handle_discover({"scenario": CASE_B})
        expected = {
            accepted["job_id"]: answer["result"]["mapping"],
            pending["job_id"]: sync_b["result"]["mapping"],
        }
        for job_id, mapping in expected.items():
            _until(lambda: service.handle_job(job_id)[1]["state"] == "done")
            status, polled = service.handle_job(job_id)
            assert status == 200
            assert polled["result"]["mapping"] == mapping
        assert set(service.jobs._jobs) == set(expected)
    finally:
        gate.set()
        service.close()


def test_finished_job_holds_only_its_wire_fields(gate):
    queue = JobQueue(
        workers=1, capacity=4, cache=ResultCache(), metrics=ServiceMetrics()
    )
    try:
        scenario = scenario_from_wire(CASE_A)
        alive = weakref.ref(scenario)
        job, cached = queue.submit(scenario, use_cache=False)
        assert cached is False
        queue.retain(job)
        own_event = job._done
        assert own_event is not _FINISHED

        woken = []
        waiter = threading.Thread(target=lambda: woken.append(job.wait(60)))
        waiter.start()
        gate.set()
        waiter.join(60)
        assert not waiter.is_alive()
        assert woken == [True]
        assert own_event.is_set()

        assert queue.job(job.job_id) is job
        assert job.state == "done"
        assert job.scenario is None and job.fingerprint is None
        assert job._done is _FINISHED
        assert job.to_wire()["result"]["mapping"]["candidates"]
        _until(lambda: not queue._unfinished)
        del scenario
        gc.collect()
        assert alive() is None

        hit, cached = queue.submit(scenario_from_wire(CASE_A))
        assert cached is True
        assert hit.done and hit.cached and hit._done is _FINISHED
        assert hit.scenario is None and hit.fingerprint is None
    finally:
        queue.stop()


def test_health_counts_jobs_that_were_never_retained(gate):
    service = MappingService(ServiceConfig(workers=1))
    try:
        running, _ = service.jobs.submit(scenario_from_wire(CASE_A))
        _until(lambda: running.state == "running")
        queued, _ = service.jobs.submit(scenario_from_wire(CASE_B))
        _, health = service.health()
        assert health["jobs"] == {
            "queued": 1, "running": 1, "done": 0, "error": 0
        }
        gate.set()
        assert running.wait(60) and queued.wait(60)
        _until(lambda: not service.jobs._unfinished)
        _, health = service.health()
        assert health["jobs"] == {
            "queued": 0, "running": 0, "done": 0, "error": 0
        }
        service.jobs.retain(running)
        _, health = service.health()
        assert health["jobs"]["done"] == 1
    finally:
        gate.set()
        service.close()


def test_concurrent_requests_keep_the_tables_consistent():
    """More clients and workers than cores, switching threads often:
    every sync wait wakes with its answer, every async id polls to
    done, and only those ids stay behind."""
    service = MappingService(ServiceConfig(workers=4))
    answers = []

    def client(index):
        for step in range(6):
            turn = index + step
            request = {
                "scenario": (CASE_A, CASE_B, CASE_C)[turn % 3],
                "mode": "async" if turn % 4 == 0 else "sync",
                "use_cache": step % 2 == 0,
                "timeout_seconds": 30,
            }
            status, payload = service.handle_discover(request)
            answers.append((request["mode"], status, payload))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clients = [
            threading.Thread(target=client, args=(index,))
            for index in range(8)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(120)
        assert not any(thread.is_alive() for thread in clients)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert len(answers) == 48
        handed_out = set()
        for mode, status, payload in answers:
            if mode == "async":
                assert status == 202, payload
                handed_out.add(payload["job_id"])
            else:
                assert status == 200, payload
        for job_id in handed_out:
            assert service.jobs.job(job_id).wait(60)
        _until(lambda: not service.jobs._unfinished)
        assert set(service.jobs._jobs) == handed_out
        _, health = service.health()
        assert health["jobs"] == {
            "queued": 0, "running": 0, "done": len(handed_out), "error": 0
        }
    finally:
        service.close()
