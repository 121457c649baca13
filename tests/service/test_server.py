"""HTTP-level tests for the mapping-discovery server."""

import http.client
import json
import threading
import time

import pytest

from repro.exceptions import ServiceCallError
from repro.service.client import ServiceClient
from repro.service.metrics import parse_exposition
from repro.service.server import MappingService, ReproServer, ServiceConfig

DBLP_CASE = {"dataset": "DBLP", "case": "dblp-article-in-journal"}


@pytest.fixture(scope="module")
def server():
    with ReproServer(ServiceConfig(workers=2)) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestHealthAndMetrics:
    def test_health(self, client):
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2
        assert payload["queue_capacity"] == 64
        assert "cache" in payload and "jobs" in payload

    def test_metrics_exposition(self, client):
        client.health()  # guarantee at least one counted request
        client.discover(DBLP_CASE)  # populate the perf-layer counters
        values = client.metrics_values()
        assert values["repro_service_workers"] == 2.0
        assert "repro_service_queue_depth" in values
        assert any(
            series.startswith("repro_service_requests_total")
            for series in values
        )
        assert any(series.startswith("repro_perf_") for series in values)

    def test_unknown_endpoint_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["error"]["type"] == "UnknownEndpoint"
        status, payload = client.request("POST", "/nope", {})
        assert status == 404


class TestValidate:
    def test_valid_scenario(self, client):
        payload = client.validate(DBLP_CASE)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    def test_invalid_scenario_reports_diagnostics(self, client):
        pair_case = dict(DBLP_CASE)
        pair_case["correspondences"] = ["missing.col <-> alsomissing.col"]
        del pair_case["case"]
        payload = client.validate(pair_case)
        assert payload["ok"] is False
        assert payload["diagnostics"]
        assert all(
            {"severity", "code", "message"} <= set(d)
            for d in payload["diagnostics"]
        )

    def test_unparseable_request_400(self, client):
        status, payload = client.request("POST", "/validate", {"nope": 1})
        assert status == 400
        assert payload["error"]["type"] == "WireFormatError"


class TestDiscover:
    def test_sync_discover_and_cached_repeat(self, client):
        first = client.discover(DBLP_CASE, use_cache=False)
        assert first["status"] == "ok"
        assert first["result"]["mapping"]["format"] == "repro-mappings/1"
        assert first["result"]["mapping"]["candidates"]

        second = client.discover(DBLP_CASE)
        assert second["status"] == "ok"
        assert second["cached"] is True
        assert json.dumps(
            first["result"]["mapping"], sort_keys=True
        ) == json.dumps(second["result"]["mapping"], sort_keys=True)

    def test_async_discover_polls_to_done(self, client):
        spec = {"dataset": "DBLP", "case": "dblp-book-publisher"}
        accepted = client.discover(spec, mode="async")
        assert accepted["status"] == "accepted"
        assert accepted["state"] in ("queued", "running", "done")
        final = client.wait_for_job(accepted["job_id"])
        assert final["state"] == "done"
        assert final["result"]["mapping"]["candidates"]

    def test_validation_gate_rejects_before_queueing(self, client):
        before = client.metrics_values().get(
            "repro_service_discovery_invocations_total", 0.0
        )
        bad = {
            "dataset": "DBLP",
            "correspondences": ["missing.col <-> alsomissing.col"],
        }
        status, payload = client.request(
            "POST", "/discover", {"scenario": bad}
        )
        assert status == 400
        assert payload["status"] == "invalid"
        assert payload["error"]["type"] == "ValidationError"
        assert len(payload["error"]["diagnostics"]) >= 1
        after = client.metrics_values().get(
            "repro_service_discovery_invocations_total", 0.0
        )
        assert after == before  # rejected before any discovery ran

    def test_malformed_body_400(self, client):
        status, payload = client.request("POST", "/discover", {"mode": 3})
        assert status == 400
        assert payload["status"] == "bad-request"

    def test_unknown_option_key_400(self, client):
        status, payload = client.request(
            "POST",
            "/discover",
            {"scenario": DBLP_CASE, "options": {"subtree_cache_size": 0}},
        )
        assert status == 400
        assert payload["status"] == "bad-request"
        assert "subtree_cache_size" in payload["error"]["message"]

    @pytest.mark.parametrize("key", ["options", "mapper_options"])
    def test_client_cache_dir_400_writes_nothing(self, client, tmp_path, key):
        target = tmp_path / "store"
        status, payload = client.request(
            "POST",
            "/discover",
            {"scenario": {**DBLP_CASE, key: {"cache_dir": str(target)}}},
        )
        assert status == 400
        assert payload["status"] == "bad-request"
        assert "server-side" in payload["error"]["message"]
        assert not target.exists()

    def test_client_checked_call_raises(self, client):
        with pytest.raises(ServiceCallError) as excinfo:
            client.job("job-does-not-exist")
        assert excinfo.value.status == 404

    def test_jobs_endpoint_unknown_id(self, client):
        status, payload = client.request("GET", "/jobs/job-unknown")
        assert status == 404
        assert payload["error"]["type"] == "UnknownJob"

    def test_async_coalesced_202_echoes_caller_scenario_id(
        self, monkeypatch
    ):
        """Regression: a coalesced async submit returned the *first*
        submitter's scenario_id in the 202 response."""
        import repro.service.jobs as jobs_mod

        release = threading.Event()

        def blocking_discover(scenarios, timeout_seconds=None):
            release.wait(30)
            raise RuntimeError("released by test")

        monkeypatch.setattr(jobs_mod, "discover_many", blocking_discover)
        service = MappingService(ServiceConfig(workers=1))
        try:
            first_status, first = service.handle_discover(
                {"scenario": {**DBLP_CASE, "id": "caller-one"},
                 "mode": "async"}
            )
            second_status, second = service.handle_discover(
                {"scenario": {**DBLP_CASE, "id": "caller-two"},
                 "mode": "async"}
            )
            assert first_status == 202 and second_status == 202
            # Same content → same coalesced job...
            assert second["job_id"] == first["job_id"]
            # ...but each caller sees the id *they* supplied.
            assert first["scenario_id"] == "caller-one"
            assert second["scenario_id"] == "caller-two"
        finally:
            release.set()
            service.close()

    def test_coalesced_sync_answers_echo_caller_scenario_id(
        self, monkeypatch
    ):
        """Regression: a sync request coalesced onto another caller's
        in-flight job echoed that caller's scenario_id in its pending
        202 and in its error answer."""
        import repro.service.jobs as jobs_mod

        release = threading.Event()

        def blocking_discover(scenarios, timeout_seconds=None):
            release.wait(30)
            raise RuntimeError("released by test")

        monkeypatch.setattr(jobs_mod, "discover_many", blocking_discover)
        service = MappingService(ServiceConfig(workers=1))
        try:
            status, accepted = service.handle_discover(
                {"scenario": {**DBLP_CASE, "id": "a"}, "mode": "async"}
            )
            assert status == 202
            status, pending = service.handle_discover(
                {"scenario": {**DBLP_CASE, "id": "b"},
                 "timeout_seconds": 0.05}
            )
            assert status == 202 and pending["status"] == "pending"
            assert pending["job_id"] == accepted["job_id"]
            assert pending["scenario_id"] == "b"

            answers = {}
            waiter = threading.Thread(
                target=lambda: answers.update(
                    c=service.handle_discover(
                        {"scenario": {**DBLP_CASE, "id": "c"}}
                    )
                )
            )
            waiter.start()
            deadline = time.monotonic() + 10
            while (
                service.metrics.value("cache_coalesced_total") < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            release.set()
            waiter.join(30)
            status, failed = answers["c"]
            assert status == 500 and failed["status"] == "error"
            assert failed["job_id"] == accepted["job_id"]
            assert failed["scenario_id"] == "c"
        finally:
            release.set()
            service.close()


def _mapping_document(source, target, covered):
    from repro.correspondences import Correspondence
    from repro.mappings import MappingCandidate, MappingSet
    from repro.mappings.serialize import mapping_set_to_dict
    from repro.queries.parser import parse_query

    candidate = MappingCandidate(
        parse_query(source),
        parse_query(target),
        (Correspondence.parse(covered),),
    )
    return mapping_set_to_dict(MappingSet.of([candidate]))


class TestCompose:
    FIRST = staticmethod(
        lambda: _mapping_document(
            "ans(n) :- person(n)",
            "ans(n) :- emp(n)",
            "person.name <-> emp.name",
        )
    )
    SECOND = staticmethod(
        lambda: _mapping_document(
            "ans(n) :- emp(n)",
            "ans(n) :- worker(n)",
            "emp.name <-> worker.name",
        )
    )

    def test_compose_round_trips_mapping_documents(self, client):
        status, payload = client.request(
            "POST",
            "/compose",
            {"first": self.FIRST(), "second": self.SECOND()},
        )
        assert status == 200 and payload["status"] == "ok"
        assert payload["composed"] == 1
        assert payload["inputs"] == {"first": 1, "second": 1}
        assert payload["rewrite_limit_hits"] == 0
        assert payload["mapping"]["format"] == "repro-mappings/1"
        from repro.mappings.serialize import mapping_set_from_dict

        (candidate,) = mapping_set_from_dict(payload["mapping"])
        assert candidate.method == "composed"
        assert [str(c) for c in candidate.covered] == [
            "person.name ↔ worker.name"
        ]

    def test_invert_field_is_removed(self, client):
        status, payload = client.request(
            "POST",
            "/compose",
            {
                "first": self.FIRST(),
                "second": self.SECOND(),
                "invert": True,
            },
        )
        assert status == 400
        assert payload["error"]["type"] == "WireFormatError"
        message = payload["error"]["message"]
        assert "'invert' was removed" in message
        assert "inversion" not in payload

    def test_missing_mapping_set_400(self, client):
        status, payload = client.request(
            "POST", "/compose", {"first": self.FIRST()}
        )
        assert status == 400
        assert payload["error"]["type"] == "WireFormatError"
        assert "second" in payload["error"]["message"]

    def test_malformed_mapping_set_400(self, client):
        status, payload = client.request(
            "POST",
            "/compose",
            {"first": {"format": "other"}, "second": self.SECOND()},
        )
        assert status == 400
        assert "first" in payload["error"]["message"]

    def test_bad_option_types_400(self, client):
        status, payload = client.request(
            "POST",
            "/compose",
            {
                "first": self.FIRST(),
                "second": self.SECOND(),
                "prune": "yes",
            },
        )
        assert status == 400
        assert "prune" in payload["error"]["message"]

    def test_swapped_head_names_compose(self, client):
        first = _mapping_document(
            "ans(x, y) :- a(x, y)",
            "ans(y, x) :- m(y, x)",
            "a.c1 <-> m.c1",
        )
        second = _mapping_document(
            "ans(u, v) :- m(u, v)",
            "ans(u, v) :- q(u, v)",
            "m.c1 <-> q.c1",
        )
        status, payload = client.request(
            "POST", "/compose", {"first": first, "second": second}
        )
        assert status == 200 and payload["composed"] == 1

    def test_truncated_composition_is_reported(self, client):
        """4**5 unfoldings, each left out: the walk stops at the limit,
        the response says so and /metrics sums it."""
        from repro.mappings import MappingCandidate, MappingSet
        from repro.mappings.serialize import mapping_set_to_dict
        from repro.queries.parser import parse_query

        first = mapping_set_to_dict(
            MappingSet.of(
                [
                    MappingCandidate(
                        parse_query(f"ans(x) :- a{i}(x)"),
                        parse_query("ans(x) :- m(x, y)"),
                        (),
                    )
                    for i in range(4)
                ]
            )
        )
        chain = ", ".join(f"m(v{i}, v{i + 1})" for i in range(5))
        second = _mapping_document(
            f"ans(v0) :- {chain}", "ans(v0) :- q(v0)", "m.c1 <-> q.c1"
        )
        series = "repro_perf_rewrite_limit_hits"
        before = client.metrics_values().get(series, 0.0)
        status, payload = client.request(
            "POST", "/compose", {"first": first, "second": second}
        )
        assert status == 200 and payload["composed"] == 0
        assert payload["rewrite_limit_hits"] == 1
        assert client.metrics_values()[series] == before + 1

    @pytest.mark.parametrize(
        "key", ["max_solutions_per_candidate", "bogus"]
    )
    def test_unknown_key_400(self, client, key):
        status, payload = client.request(
            "POST",
            "/compose",
            {"first": self.FIRST(), "second": self.SECOND(), key: 8},
        )
        assert status == 400
        message = payload["error"]["message"]
        assert key in message
        assert ("removed" in message) == (
            key == "max_solutions_per_candidate"
        )


class TestHandlerErrorGuards:
    def test_get_handler_exception_returns_500_json(self):
        """Regression: exceptions inside GET dispatch escaped the
        handler, dropping the connection instead of answering 500."""
        with ReproServer(ServiceConfig(workers=1)) as running:

            def boom():
                raise RuntimeError("snapshot race (test)")

            running.service.health = boom
            client = ServiceClient(running.url)
            status, payload = client.request("GET", "/health")
            assert status == 500
            assert payload["status"] == "error"
            assert payload["error"]["type"] == "RuntimeError"
            values = parse_exposition(client.metrics_text())
            assert (
                values[
                    'repro_service_requests_total{endpoint="health",status="500"}'
                ]
                >= 1.0
            )

    def test_negative_content_length_rejected(self, server):
        """Regression: a negative Content-Length reached
        ``rfile.read(-1)``, pinning the handler thread until the client
        hung up."""
        conn = http.client.HTTPConnection(
            server.config.host, server.port, timeout=5
        )
        try:
            conn.putrequest("POST", "/validate")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["type"] == "WireFormatError"
            assert "Content-Length" in payload["error"]["message"]
        finally:
            conn.close()


class TestBackpressure:
    def test_full_queue_gets_429_with_retry_after(self):
        # A dedicated server whose submit path always reports a full
        # queue: every discover request must surface as HTTP 429.
        from repro.exceptions import QueueFullError

        with ReproServer(
            ServiceConfig(workers=1, queue_capacity=1)
        ) as running:
            service = running.service

            def always_full(scenario, use_cache=True):
                raise QueueFullError("job queue is at capacity (test)")

            service.jobs.submit = always_full
            client = ServiceClient(running.url)
            status, payload = client.request(
                "POST", "/discover", {"scenario": DBLP_CASE}
            )
            assert status == 429
            assert payload["status"] == "rejected"
            assert payload["error"]["type"] == "QueueFullError"
            text = client.metrics_text()
            values = parse_exposition(text)
            assert (
                values[
                    'repro_service_requests_total{endpoint="discover",status="429"}'
                ]
                >= 1.0
            )


class TestServerLifecycle:
    def test_port_zero_resolves_and_context_manager_cleans_up(self):
        with ReproServer(ServiceConfig(port=0)) as running:
            assert running.port > 0
            assert str(running.port) in running.url
            client = ServiceClient(running.url)
            assert client.health()["status"] == "ok"
        # After shutdown the socket is closed: a new request must fail.
        with pytest.raises(ServiceCallError):
            ServiceClient(running.url, timeout=0.5).health()

    def test_shutdown_returns_promptly(self):
        """Stopping a started server does not wait out socketserver's
        default 0.5 s ``serve_forever`` poll."""
        server = ReproServer(ServiceConfig(port=0)).start()
        started = time.perf_counter()
        server.shutdown()
        assert time.perf_counter() - started < 0.25
