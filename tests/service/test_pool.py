"""The pre-fork process pool: serving, coherence, metrics, shutdown.

The supervisor forks real processes, so the end-to-end tests drive
``python -m repro serve --processes N`` in a subprocess (forking from
inside the threaded pytest process would be fragile) and talk HTTP to
it. The pure pieces — metric labeling, snapshot files, config
validation — are tested in-process.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service.metrics import (
    label_series,
    parse_exposition,
    read_snapshot_series,
    write_snapshot_file,
)
from repro.service.pool import PreForkSupervisor, snapshot_path
from repro.service.server import ServiceConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestLabelSeries:
    def test_adds_label_to_bare_series(self):
        text = "repro_service_pool_size 2\n"
        out = label_series(text, worker="1")
        assert out == 'repro_service_pool_size{worker="1"} 2\n'

    def test_merges_into_existing_label_block(self):
        text = 'repro_service_requests_total{endpoint="health"} 3\n'
        out = label_series(text, worker="0")
        assert (
            out
            == 'repro_service_requests_total{endpoint="health",worker="0"} 3\n'
        )

    def test_comments_and_blank_lines_pass_through(self):
        text = "# TYPE x counter\n\nx 1\n"
        out = label_series(text, worker="2")
        assert out.splitlines()[0] == "# TYPE x counter"
        assert out.splitlines()[2] == 'x{worker="2"} 1'

    def test_labeled_document_still_parses(self):
        text = 'a 1\nb{c="d"} 2.5\n'
        values = parse_exposition(label_series(text, worker="7"))
        assert values['a{worker="7"}'] == 1.0
        assert values['b{c="d",worker="7"}'] == 2.5

    def test_no_labels_is_identity(self):
        text = "a 1\n"
        assert label_series(text) == text


class TestSnapshotFiles:
    def test_round_trip(self, tmp_path):
        path = snapshot_path(str(tmp_path), 3)
        assert write_snapshot_file(path, "# TYPE a counter\na 1\nb 2\n")
        assert read_snapshot_series(path) == ["a 1", "b 2"]

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_snapshot_series(snapshot_path(str(tmp_path), 9)) == []

    def test_write_failure_returns_false(self):
        assert (
            write_snapshot_file("/proc/definitely/not/writable", "x")
            is False
        )


class TestConfigValidation:
    def test_worker_index_must_fit_pool(self):
        with pytest.raises(ValueError, match="out of range"):
            ServiceConfig(worker_index=2, pool_size=2)

    def test_negative_worker_index(self):
        with pytest.raises(ValueError, match="out of range"):
            ServiceConfig(worker_index=-1)

    def test_empty_cache_dir(self):
        with pytest.raises(ValueError, match="cache_dir"):
            ServiceConfig(cache_dir="")

    def test_supervisor_needs_a_worker(self):
        with pytest.raises(ValueError, match="processes"):
            PreForkSupervisor(processes=0)


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


@pytest.fixture(scope="module")
def pool_server(tmp_path_factory):
    """One two-worker pre-fork server with a shared cache directory."""
    cache_dir = str(tmp_path_factory.mktemp("pool-cache"))
    proc, url = _start_server(2, cache_dir)
    yield proc, url, cache_dir
    if proc.poll() is None:
        # SIGTERM lets the supervisor stop its workers; a SIGKILL
        # would leave them running without a parent.
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


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


class TestPreForkServing:
    SCENARIO = {"dataset": "DBLP", "case": "dblp-article-in-journal"}

    def test_health_and_discover(self, pool_server):
        _, url, _ = pool_server
        health = json.loads(_get(url, "/health"))
        assert health["status"] == "ok"
        result = _post(url, "/discover", {"scenario": self.SCENARIO})
        assert result["status"] == "ok"
        assert result["result"]["mapping"]["candidates"]

    def test_disk_tier_is_the_coherence_point(self, pool_server):
        """A scenario computed once is served warm by *every* worker.

        Which worker accepts each connection is the kernel's choice, so
        assert on the architecture instead: the first discovery writes
        its stage artifacts and result payload into the shared cache
        directory, where any sibling (or a restart) finds them.
        """
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
        # Repeats are cache hits wherever they land.
        repeat = _post(url, "/discover", {"scenario": self.SCENARIO})
        assert repeat["status"] == "ok"

    def test_metrics_aggregate_across_workers(self, pool_server):
        _, url, _ = pool_server
        _get(url, "/metrics")  # ensure at least one scrape happened
        time.sleep(2.5)  # > SNAPSHOT_INTERVAL: every worker publishes
        deadline = time.monotonic() + 10.0
        while True:
            values = parse_exposition(_get(url, "/metrics"))
            up = [
                values.get(f'repro_service_pool_worker_up{{worker="{i}"}}')
                for i in range(2)
            ]
            if up == [1.0, 1.0]:
                break
            if time.monotonic() >= deadline:
                pytest.fail(f"workers never all up: {up}")
            time.sleep(0.5)
        assert values.get("repro_service_pool_size") == 2.0
        workers_seen = {
            series.split('worker="', 1)[1].split('"', 1)[0]
            for series in values
            if 'worker="' in series
        }
        assert workers_seen == {"0", "1"}

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
        """Each worker keeps its own job table, and the kernel hands a
        poll to any worker: ids must not collide across the pool, and a
        sibling must answer for a job it does not hold."""
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
