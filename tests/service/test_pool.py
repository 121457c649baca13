"""The compute-process pool behind ``serve --processes N``.

One HTTP process owns the job table, the result cache, coalescing and
the metrics; discoveries run in N compute processes. The end-to-end
tests drive ``python -m repro serve --processes 2 --workers 1`` in a
subprocess and talk HTTP to it; crash isolation, the job timeout and
the perf counters run a :class:`ReproServer` in-process.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.server as server_mod
from repro.discovery.batch import Scenario
from repro.service.client import ServiceClient
from repro.service.metrics import parse_exposition
from repro.service.server import ReproServer, ServiceConfig
from tests.discovery.test_batch_faults import SlowScenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class WorkerKillerScenario(Scenario):
    """Hard-exits when run in a compute process; succeeds in the parent."""

    def run(self):
        if multiprocessing.current_process().name != "MainProcess":
            os._exit(13)
        return super().run()


class TestConfigValidation:
    def test_empty_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            ServiceConfig(cache_dir="")

    def test_processes_must_be_positive(self):
        with pytest.raises(ValueError, match="processes"):
            ServiceConfig(processes=0)

    def test_job_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="job_timeout_seconds"):
            ServiceConfig(job_timeout_seconds=0)


def _post(url: str, path: str, payload: dict, timeout: float = 60.0):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _get(url: str, path: str, timeout: float = 10.0) -> str:
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _start_server(processes: int, cache_dir: str):
    """``python -m repro serve`` in a subprocess; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--processes",
            str(processes),
            "--workers",
            "1",
            "--cache-dir",
            cache_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    banner = proc.stdout.readline()
    if "listening on " not in banner:
        proc.kill()
        pytest.fail(f"server failed to start: {banner!r}")
    return proc, banner.split("listening on ", 1)[1].split(" ", 1)[0]


def _stop(proc):
    if proc.poll() is None:
        # SIGTERM drains like SIGINT: the server stops its compute
        # processes before it exits.
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture(scope="module")
def pool_server(tmp_path_factory):
    """One server with two compute processes and a cache directory."""
    cache_dir = str(tmp_path_factory.mktemp("pool-cache"))
    proc, url = _start_server(2, cache_dir)
    yield proc, url, cache_dir
    _stop(proc)


def test_single_process_server_drains_on_sigint(tmp_path):
    proc, url = _start_server(1, str(tmp_path))
    try:
        scenario = {"dataset": "Hotel", "case": "hotel-room-of-hotel"}
        assert _post(url, "/discover", {"scenario": scenario})["status"] == "ok"
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_identical_cold_requests_coalesce_across_processes(tmp_path):
    """Eight concurrent identical cold requests run one discovery: the
    one HTTP process coalesces them, whichever compute process runs it."""
    proc, url = _start_server(2, str(tmp_path))
    try:
        body = {
            "scenario": {"dataset": "DBLP", "case": "dblp-book-publisher"},
            "options": {"max_path_edges": 9},
        }
        with ThreadPoolExecutor(max_workers=8) as executor:
            answers = list(
                executor.map(
                    lambda _: _post(url, "/discover", body), range(8)
                )
            )
        assert [answer["status"] for answer in answers] == ["ok"] * 8
        values = parse_exposition(_get(url, "/metrics"))
        assert values["repro_service_discovery_invocations_total"] == 1.0
    finally:
        _stop(proc)


def _live_parents():
    """``{pid: parent pid}`` of every process that has not exited."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as f:
                    state, parent = f.read().rsplit(")", 1)[1].split()[:2]
            except (OSError, ValueError):
                continue
            if state != "Z":
                parents[int(entry)] = int(parent)
    return parents


def _descendants(pid):
    """Every live process below ``pid``."""
    parents = _live_parents()
    found, frontier = set(), {pid}
    while frontier:
        frontier = {
            child for child, parent in parents.items() if parent in frontier
        }
        found |= frontier
    return found


@pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="reads the process tree from /proc"
)
def test_a_killed_server_leaves_no_compute_process(tmp_path):
    proc, url = _start_server(2, str(tmp_path))
    try:
        assert json.loads(_get(url, "/health"))["processes"] == 2
        deadline = time.monotonic() + 30
        while len(_descendants(proc.pid)) < 3:  # forkserver + 2 workers
            assert time.monotonic() < deadline, _descendants(proc.pid)
            time.sleep(0.05)
        pool = _descendants(proc.pid)
    finally:
        proc.kill()
        proc.wait(timeout=10)
    deadline = time.monotonic() + 30
    while pool & set(_live_parents()):
        assert time.monotonic() < deadline, "compute processes outlived it"
        time.sleep(0.05)


DBLP = {"dataset": "DBLP", "case": "dblp-article-in-journal"}
HOTEL = {"dataset": "Hotel", "case": "hotel-room-of-hotel"}


def _hotel_runs_as(monkeypatch, scenario_class):
    """Parse the Hotel case into ``scenario_class`` on its way in."""
    parse = server_mod.discover_request_from_wire

    def parse_hotel_as(payload):
        scenario, options = parse(payload)
        if scenario.scenario_id == "Hotel/hotel-room-of-hotel":
            scenario = scenario_class(
                scenario.scenario_id,
                scenario.source,
                scenario.target,
                scenario.correspondences,
                scenario.mapper_options,
            )
        return scenario, options

    monkeypatch.setattr(
        server_mod, "discover_request_from_wire", parse_hotel_as
    )


def test_a_crashed_compute_process_fails_only_its_job(monkeypatch):
    """A scenario that kills its compute process answers a structured
    ``WorkerCrashed`` 500; a fresh process takes its place and the next
    request is answered. The scenario is not re-run in the HTTP process,
    where it would succeed."""
    _hotel_runs_as(monkeypatch, WorkerKillerScenario)
    with ReproServer(ServiceConfig(workers=1, processes=2)) as server:
        client = ServiceClient(server.url)
        status, crashed = client.request(
            "POST", "/discover", {"scenario": HOTEL}
        )
        assert status == 500, crashed
        assert crashed["status"] == "error"
        assert crashed["error"]["type"] == "WorkerCrashed"
        assert crashed["error"]["scenario_id"] == "Hotel/hotel-room-of-hotel"
        for _ in range(3):  # whichever process takes it
            status, answer = client.request(
                "POST", "/discover", {"scenario": DBLP, "use_cache": False}
            )
            assert status == 200 and answer["status"] == "ok", answer
        assert server.service.metrics.value("jobs_failed_total") == 1
        assert server.service.metrics.value("jobs_completed_total") == 3


def test_the_job_timeout_stops_a_run_in_a_compute_process(monkeypatch):
    _hotel_runs_as(monkeypatch, SlowScenario)
    config = ServiceConfig(workers=1, processes=2, job_timeout_seconds=0.5)
    with ReproServer(config) as server:
        client = ServiceClient(server.url)
        status, stopped = client.request(
            "POST", "/discover", {"scenario": HOTEL}
        )
        assert status == 504, stopped
        assert stopped["error"]["type"] == "ScenarioTimeout"


@pytest.mark.parametrize("processes", [1, 2])
def test_perf_counters_count_discoveries_in_any_process(processes):
    """``repro_perf_*`` sums the counters each run reports, so a cold
    discovery shows whether it ran on a job thread or in a compute
    process."""
    with ReproServer(ServiceConfig(workers=1, processes=processes)) as server:
        client = ServiceClient(server.url)
        body = {
            "scenario": DBLP,
            "use_cache": False,
            # A never-seen option value misses every stage cache.
            "options": {"max_path_edges": 20 + processes},
        }
        assert client.request("POST", "/discover", body)[0] == 200
        values = client.metrics_values()
        assert values["repro_service_processes"] == processes
        assert values["repro_perf_dijkstra_sweeps"] >= 1


class TestPreForkServing:
    """``serve --processes 2 --workers 1`` end to end."""

    SCENARIO = DBLP

    def test_health_and_discover(self, pool_server):
        _, url, _ = pool_server
        health = json.loads(_get(url, "/health"))
        assert health["status"] == "ok"
        assert (health["processes"], health["workers"]) == (2, 2)
        result = _post(url, "/discover", {"scenario": self.SCENARIO})
        assert result["status"] == "ok"
        assert result["result"]["mapping"]["candidates"]

    def test_disk_tier_is_the_coherence_point(self, pool_server):
        """The cache directory holds what a restart or a batch run reads
        back: the compute process writes the stage artifacts, the HTTP
        process the result payload."""
        _, url, cache_dir = pool_server
        _post(url, "/discover", {"scenario": self.SCENARIO})
        entries = [
            os.path.join(root, name)
            for root, _, names in os.walk(cache_dir)
            for name in names
            if name.endswith(".entry")
        ]
        assert entries, "no cache entries written to the shared dir"
        stages = {
            os.path.relpath(p, cache_dir).split(os.sep)[0] for p in entries
        }
        assert "rank" in stages  # the full-hit artifact
        assert "service_result" in stages  # the result-cache tier
        repeat = _post(url, "/discover", {"scenario": self.SCENARIO})
        assert repeat["status"] == "ok"
        assert repeat["cached"] is True

    def test_metrics_aggregate_across_workers(self, pool_server):
        """One scrape counts the discoveries of both compute processes."""
        _, url, _ = pool_server
        before = parse_exposition(_get(url, "/metrics"))
        bodies = [
            {
                "scenario": {"dataset": "Mondial", "case": case},
                "use_cache": False,
                "options": {"max_path_edges": 30 + serial},
            }
            for serial, case in enumerate(
                ("mondial-city-in-country", "mondial-city-in-country")
            )
        ]
        with ThreadPoolExecutor(max_workers=2) as executor:
            statuses = [
                answer["status"]
                for answer in executor.map(
                    lambda body: _post(url, "/discover", body), bodies
                )
            ]
        assert statuses == ["ok", "ok"]
        after = parse_exposition(_get(url, "/metrics"))
        name = "repro_service_discovery_invocations_total"
        assert after[name] - before.get(name, 0.0) == 2.0
        assert after["repro_service_processes"] == 2.0
        assert after["repro_service_workers"] == 2.0
        assert not any('worker="' in series for series in after)

    def test_concurrent_clients_are_all_answered(self, pool_server):
        """Sixteen clients, five requests each, over seven cases; every
        fifth request carries a never-seen ``max_path_edges``, a miss in
        every cache, so the pool runs discovery under the load."""
        _, url, _ = pool_server
        cases = [
            ("DBLP", "dblp-article-in-journal"),
            ("DBLP", "dblp-book-publisher"),
            ("Mondial", "mondial-city-in-country"),
            ("Amalgam", "amalgam-author-of-article"),
            ("Hotel", "hotel-room-of-hotel"),
            ("UT", "ut-professor-teaches-course"),
            ("Network", "network-interface-of-device"),
        ]
        requests = []
        for serial in range(80):
            dataset, case = cases[serial % len(cases)]
            body = {"scenario": {"dataset": dataset, "case": case}}
            if serial % 20 == 0:
                body["options"] = {"max_path_edges": 10 + serial}
            requests.append(body)

        def client(start):
            return [
                _post(url, "/discover", body)["status"]
                for body in requests[start::16]
            ]

        with ThreadPoolExecutor(max_workers=16) as executor:
            statuses = [
                status
                for answers in executor.map(client, range(16))
                for status in answers
            ]
        assert statuses == ["ok"] * 80

    def test_every_poll_finds_its_own_async_job(self, pool_server):
        """Async jobs computed in either compute process are polled from
        the one job table: ids never collide and every poll answers."""
        _, url, _ = pool_server
        cases = (
            "dblp-author-of-publication",
            "dblp-author-in-journal",
            "dblp-paper-at-conference",
            "dblp-book-publisher",
        )
        accepted = [
            _post(
                url,
                "/discover",
                {
                    "scenario": {"dataset": "DBLP", "case": case},
                    "mode": "async",
                },
            )
            for case in cases
        ]
        job_ids = [reply["job_id"] for reply in accepted]
        assert len(set(job_ids)) == len(job_ids), job_ids
        for _ in range(10):
            for reply in accepted:
                try:
                    polled = json.loads(
                        _get(url, f"/jobs/{reply['job_id']}")
                    )
                except urllib.error.HTTPError as error:
                    pytest.fail(
                        f"GET /jobs/{reply['job_id']} answered {error.code}"
                    )
                assert polled["job_id"] == reply["job_id"]
                assert polled["scenario_id"] == reply["scenario_id"]
            time.sleep(0.05)

    def test_sigint_drains_and_exits_cleanly(self, pool_server):
        proc, url, _ = pool_server
        _post(url, "/discover", {"scenario": self.SCENARIO})
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
