"""Unit tests for the job queue and the metrics sink."""

import threading
import time

import pytest

from repro.exceptions import QueueFullError
from repro.perf import counters as perf_counters
from repro.service.cache import ResultCache
from repro.service.jobs import JobQueue
from repro.service.metrics import ServiceMetrics, parse_exposition
from repro.service.wire import scenario_from_wire


@pytest.fixture()
def scenario():
    return scenario_from_wire(
        {"dataset": "DBLP", "case": "dblp-article-in-journal"}
    )


@pytest.fixture()
def other_scenario():
    return scenario_from_wire(
        {"dataset": "DBLP", "case": "dblp-book-publisher"}
    )


class TestJobQueue:
    def test_submit_runs_and_caches(self, scenario):
        metrics = ServiceMetrics()
        queue = JobQueue(
            workers=1, capacity=8, cache=ResultCache(), metrics=metrics
        )
        try:
            job, cached = queue.submit(scenario)
            assert cached is False
            assert job.wait(60)
            assert job.state == "done"
            assert job.result["mapping"]["candidates"]
            again, cached = queue.submit(scenario)
            assert cached is True
            assert again.done and again.cached
            assert again.result is job.result  # the exact cached payload
            assert metrics.value("cache_hits_total") == 1
            assert metrics.value("cache_misses_total") == 1
            assert metrics.value("discovery_invocations_total") == 1
        finally:
            queue.stop()

    def test_use_cache_false_recomputes(self, scenario):
        metrics = ServiceMetrics()
        queue = JobQueue(
            workers=1, capacity=8, cache=ResultCache(), metrics=metrics
        )
        try:
            first, _ = queue.submit(scenario)
            assert first.wait(60)
            second, cached = queue.submit(scenario, use_cache=False)
            assert cached is False
            assert second.wait(60)
            assert metrics.value("discovery_invocations_total") == 2
        finally:
            queue.stop()

    def test_backpressure_raises_queue_full(self, scenario, other_scenario):
        # workers=0: nothing drains, so the bounded queue fills up.
        metrics = ServiceMetrics()
        queue = JobQueue(
            workers=0, capacity=1, cache=ResultCache(), metrics=metrics
        )
        queue.submit(scenario)
        with pytest.raises(QueueFullError):
            queue.submit(other_scenario)
        assert metrics.value("jobs_rejected_total") == 1

    def test_identical_inflight_requests_coalesce(self, scenario):
        metrics = ServiceMetrics()
        queue = JobQueue(
            workers=0, capacity=1, cache=ResultCache(), metrics=metrics
        )
        first, cached_first = queue.submit(scenario)
        # Queue is full, but an identical scenario piggybacks anyway.
        second, cached_second = queue.submit(scenario)
        assert cached_first is False and cached_second is True
        assert second is first
        assert metrics.value("cache_coalesced_total") == 1

    def test_failing_scenario_yields_structured_error(self, scenario):
        from repro.correspondences import CorrespondenceSet
        from repro.discovery.batch import Scenario

        empty = Scenario.create(
            "broken",
            scenario.source,
            scenario.target,
            CorrespondenceSet(),
        )
        metrics = ServiceMetrics()
        queue = JobQueue(
            workers=1, capacity=8, cache=ResultCache(), metrics=metrics
        )
        try:
            job, _ = queue.submit(empty)
            assert job.wait(60)
            assert job.state == "error"
            assert job.error["scenario_id"] == "broken"
            assert job.error["type"]
            assert metrics.value("jobs_failed_total") == 1
        finally:
            queue.stop()

    def test_job_lookup_and_history(self, scenario):
        queue = JobQueue(
            workers=1,
            capacity=8,
            cache=ResultCache(),
            metrics=ServiceMetrics(),
        )
        try:
            job, _ = queue.submit(scenario)
            assert queue.job(job.job_id) is None  # not handed out yet
            queue.retain(job)
            assert queue.job(job.job_id) is job
            assert queue.job("job-unknown") is None
            assert job.wait(60)
            wire = job.to_wire()
            assert wire["state"] == "done"
            assert wire["run_seconds"] >= 0
        finally:
            queue.stop()

    def test_worker_stats_isolated_from_concurrent_scopes(self, scenario):
        """Regression: the perf frame stack was process-global, so a
        concurrent thread's scoped events leaked into a job's
        ``run.stats`` (and vice versa)."""
        stop = threading.Event()
        polluting = threading.Event()

        def pollute():
            with perf_counters.scope():
                polluting.set()
                while not stop.is_set():
                    perf_counters.record("contaminant_event")
                    time.sleep(0)  # yield so the worker makes progress

        thread = threading.Thread(target=pollute)
        thread.start()
        queue = JobQueue(
            workers=1,
            capacity=8,
            cache=ResultCache(),
            metrics=ServiceMetrics(),
        )
        try:
            assert polluting.wait(10)
            job, _ = queue.submit(scenario)
            assert job.wait(60)
            assert job.state == "done"
            stats = job.result["run"]["stats"]
            assert "contaminant_event" not in stats
        finally:
            stop.set()
            thread.join(10)
            queue.stop()

    def test_stop_does_not_block_on_full_queue(
        self, scenario, other_scenario, monkeypatch
    ):
        """Regression: ``stop()`` used a blocking ``put(_STOP)``, so a
        full queue plus a wedged worker blocked shutdown forever."""
        import repro.service.jobs as jobs_mod

        release = threading.Event()
        wedged = threading.Event()

        def blocking_discover(scenarios, workers=1, policy=None):
            wedged.set()
            release.wait(30)
            raise RuntimeError("released by test")

        monkeypatch.setattr(jobs_mod, "discover_many", blocking_discover)
        queue = JobQueue(
            workers=1,
            capacity=1,
            cache=ResultCache(),
            metrics=ServiceMetrics(),
        )
        try:
            first, _ = queue.submit(scenario)  # worker picks this up
            assert wedged.wait(10)
            second, _ = queue.submit(other_scenario)  # fills the queue
            start = time.monotonic()
            with pytest.warns(RuntimeWarning, match="deadline"):
                queue.stop(timeout=0.2)
            assert time.monotonic() - start < 5
            # Submissions after stop() are rejected outright.
            with pytest.raises(QueueFullError):
                queue.submit(scenario)
        finally:
            release.set()
        # Once released, the wedged job fails and the still-queued job
        # is fast-failed instead of running during shutdown.
        assert first.wait(10) and first.state == "error"
        assert second.wait(10) and second.state == "error"
        assert second.error["type"] == "ServiceStopped"

    @pytest.mark.parametrize(
        "kwargs",
        [{"workers": -1}, {"capacity": 0}, {"history": 0}],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            JobQueue(
                **{
                    "workers": 1,
                    "capacity": 2,
                    "cache": ResultCache(),
                    "metrics": ServiceMetrics(),
                    **kwargs,
                }
            )


class TestServiceMetrics:
    def test_counters_by_label(self):
        metrics = ServiceMetrics()
        metrics.inc("requests_total", endpoint="discover", status="200")
        metrics.inc("requests_total", endpoint="discover", status="200")
        metrics.inc("requests_total", endpoint="discover", status="400")
        assert (
            metrics.value("requests_total", endpoint="discover", status="200")
            == 2
        )
        assert metrics.total("requests_total") == 3

    def test_latency_quantiles(self):
        metrics = ServiceMetrics()
        for ms in range(1, 101):
            metrics.observe("discover", ms / 1000.0)
        p50 = metrics.quantile("discover", 0.5)
        p95 = metrics.quantile("discover", 0.95)
        assert 0.045 <= p50 <= 0.055
        assert 0.090 <= p95 <= 0.100
        assert metrics.quantile("nope", 0.5) is None

    def test_render_and_parse_round_trip(self):
        metrics = ServiceMetrics()
        metrics.inc("requests_total", endpoint="health", status="200")
        metrics.observe("health", 0.002)
        text = metrics.render(gauges={"repro_service_queue_depth": 3})
        values = parse_exposition(text)
        assert (
            values[
                'repro_service_requests_total{endpoint="health",status="200"}'
            ]
            == 1.0
        )
        assert values["repro_service_queue_depth"] == 3.0
        assert (
            'repro_service_request_seconds_count{endpoint="health"}' in values
        )
        assert "# TYPE repro_service_requests_total counter" in text
