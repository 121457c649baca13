"""Explain mode and per-phase metrics over real HTTP.

The PR's second acceptance path: the same span tree / prune log the CLI
prints must come back from ``POST /discover`` when the request carries
``{"options": {"explain": true}}``, byte-stable across identical runs
modulo timings, and ``GET /metrics`` must expose per-phase latency
quantiles fed by the traced runs' stats.
"""

import copy

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ReproServer, ServiceConfig
from repro.service.wire import WIRE_VERSION

#: The CLI acceptance case: one candidate survives, one CSG pair is
#: pruned by the partOf compatibility rule.
SCENARIO = {"dataset": "Network", "case": "network-interface-of-device"}


def scrub_timings(trace):
    trace = copy.deepcopy(trace)

    def scrub(span):
        span.pop("elapsed_s", None)
        for child in span.get("children", ()):
            scrub(child)

    for span in trace["spans"]:
        scrub(span)
    return trace


@pytest.fixture(scope="module")
def server():
    with ReproServer(ServiceConfig(workers=2)) as instance:
        yield instance


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


class TestExplainOverHttp:
    def test_trace_section_with_prune_events(self, client):
        status, payload = client.request(
            "POST",
            "/discover",
            {"scenario": dict(SCENARIO), "options": {"explain": True}},
        )
        assert status == 200
        assert payload["status"] == "ok"
        trace = payload["result"]["trace"]
        assert trace["explain"] is True
        assert trace["spans"][0]["name"] == "discover"
        rules = {event["rule"] for event in trace["prunes"]}
        assert "partOf" in rules
        assert trace["provenance"]

    def test_stable_across_identical_runs_modulo_timings(self, client):
        traces = []
        for use_cache in (False, False):
            status, payload = client.request(
                "POST",
                "/discover",
                {
                    "scenario": dict(SCENARIO),
                    "options": {"explain": True},
                    "use_cache": use_cache,
                },
            )
            assert status == 200
            traces.append(scrub_timings(payload["result"]["trace"]))
        assert traces[0] == traces[1]

    def test_untraced_by_default(self, client):
        status, payload = client.request(
            "POST", "/discover", {"scenario": dict(SCENARIO)}
        )
        assert status == 200
        assert "trace" not in payload["result"]

    def test_clio_engine_selectable_over_the_wire(self, client):
        status, payload = client.request(
            "POST",
            "/discover",
            {
                "scenario": dict(SCENARIO),
                "options": {"engine": "clio"},
                "use_cache": False,
            },
        )
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["result"]["mapping"]["candidates"]

    def test_unknown_engine_is_400(self, client):
        status, payload = client.request(
            "POST",
            "/discover",
            {"scenario": dict(SCENARIO), "options": {"engine": "prehistoric"}},
        )
        assert status == 400
        assert "engine" in payload["error"]["message"]

    def test_bad_options_are_400(self, client):
        status, payload = client.request(
            "POST",
            "/discover",
            {"scenario": dict(SCENARIO), "options": {"max_candidates": 1}},
        )
        assert status == 400
        assert "max_candidates" in payload["error"]["message"]


class TestWireVersionOverHttp:
    def test_responses_declare_version(self, client):
        status, payload = client.request(
            "POST", "/discover", {"scenario": dict(SCENARIO)}
        )
        assert status == 200
        assert payload["version"] == WIRE_VERSION
        assert payload["result"]["version"] == WIRE_VERSION

    def test_health_declares_version(self, client):
        assert client.health()["version"] == WIRE_VERSION

    def test_unknown_version_is_400(self, client):
        status, payload = client.request(
            "POST",
            "/discover",
            {"scenario": dict(SCENARIO), "version": WIRE_VERSION + 1},
        )
        assert status == 400
        assert "unsupported wire version" in payload["error"]["message"]


class TestPhaseMetrics:
    def test_phase_latency_summary_rendered(self, client):
        # at least one discovery has run by now (module-scoped client)
        client.request("POST", "/discover", {"scenario": dict(SCENARIO)})
        text = client.metrics_text()
        assert "repro_service_phase_seconds" in text
        assert 'phase="discover"' in text
        assert 'quantile="0.5"' in text
        assert 'quantile="0.95"' in text
        assert "repro_service_phase_seconds_count" in text

    def test_wall_time_exported_once(self, client):
        """Span seconds reach /metrics only as the phase summary, never
        again as process-root ``repro_perf_time_*`` gauges."""
        client.request("POST", "/discover", {"scenario": dict(SCENARIO)})
        text = client.metrics_text()
        assert "repro_perf_" in text
        assert "repro_perf_time_" not in text
