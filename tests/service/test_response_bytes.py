"""The raw bytes of ``/discover`` and ``/jobs/<id>`` response bodies.

A finished result is encoded once and spliced into every response, so
these tests read bodies as bytes off the socket, not as decoded JSON.
The pinned digests were recorded before the splice existed, when every
body was ``json.dumps(body, sort_keys=True)``: they hold the layout
(key order, separators, escaping) of the miss, the ``"cached": true``
hit and a polled async job, served in-process and by a two-process
compute pool. Only the per-run measurements are scrubbed first.
"""

import hashlib
import io
import json
import pickle
import re
import time
import urllib.request
from multiprocessing.reduction import ForkingPickler

import pytest

import repro.service.jobs as jobs_mod
from repro.service.server import ReproServer, ServiceConfig

CASE = {"dataset": "DBLP", "case": "dblp-article-in-journal"}

#: sha256 of each scrubbed body, recorded with the bodies encoded whole.
DIGESTS = {
    "miss": "03f337a995114e83a42c729f39af7a348b4be34d23bbd031c8fd8f7be5e90f1d",
    "hit": "a438ce1c32644add254e8775180bc4ac9b97f28e638539bfa4f8a6e8ebffce1d",
    "job": "238289a61afe3e1edf7a5cabad688f1c5221e8dbfbd60423fc67bcfe15483616",
}

#: ``result.run``: wall time and counters that legitimately vary by run
#: and by process (a warm process counts memo hits a cold one misses).
_RUN = re.compile(rb'"run": \{"elapsed_seconds": [^,]+, "stats": \{[^{}]*\}\}')
#: The queue and run times of a polled job.
_TIMES = re.compile(rb'"(queue_seconds|run_seconds)": [-+.0-9e]+')


def _scrubbed(body: bytes) -> bytes:
    body, runs = _RUN.subn(b'"run": null', body)
    assert runs == 1, body[:200]
    return _TIMES.sub(rb'"\1": 0', body)


def _digest(body: bytes) -> str:
    return hashlib.sha256(_scrubbed(body)).hexdigest()


def _raw(url: str, path: str, payload: dict | None = None) -> bytes:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=data)
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read()


def _result_fragment(body: bytes) -> bytes:
    """The ``"result"`` value exactly as it stands in ``body``."""
    text = body.decode("utf-8")
    start = text.index('"result": ') + len('"result": ')
    _, end = json.JSONDecoder().raw_decode(text, start)
    return body[start:end]


@pytest.fixture(scope="module", params=[1, 2], ids=["in-process", "pool"])
def bodies(request):
    """The miss, the cached hit and a polled async job of one server."""
    config = ServiceConfig(workers=1, processes=request.param)
    with ReproServer(config) as server:
        miss = _raw(server.url, "/discover", {"scenario": CASE})
        hit = _raw(server.url, "/discover", {"scenario": CASE})
        accepted = json.loads(
            _raw(
                server.url,
                "/discover",
                {"scenario": CASE, "mode": "async", "use_cache": False},
            )
        )
        path = f"/jobs/{accepted['job_id']}"
        deadline = time.monotonic() + 120
        job = _raw(server.url, path)
        while json.loads(job)["state"] != "done":
            assert time.monotonic() < deadline, job
            time.sleep(0.05)
            job = _raw(server.url, path)
    return {"miss": miss, "hit": hit, "job": job}


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_body_bytes_are_pinned(bodies, kind):
    assert _digest(bodies[kind]) == DIGESTS[kind]


def test_bodies_are_sorted_key_json(bodies):
    for body in bodies.values():
        assert body == json.dumps(json.loads(body), sort_keys=True).encode()


def test_a_hit_repeats_the_result_bytes(bodies):
    assert json.loads(bodies["hit"])["cached"] is True
    assert _result_fragment(bodies["hit"]) == _result_fragment(bodies["miss"])


def test_the_pool_ships_encoded_bytes(monkeypatch):
    """Under ``--processes 2`` the compute process encodes the result:
    the HTTP process neither unpickles a ``DiscoveryResult`` nor calls
    ``result_to_wire``, and it sends the bytes it received."""
    unpickled: list[str] = []

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            unpickled.append(f"{module}.{name}")
            return super().find_class(module, name)

    def loads(data, /):
        return Recording(io.BytesIO(data)).load()

    def refuse(result):
        raise AssertionError("result_to_wire ran in the HTTP process")

    received = []
    run = jobs_mod.ComputePool.run

    def recording_run(pool, scenario, timeout_seconds):
        outcome = run(pool, scenario, timeout_seconds)
        received.append(outcome)
        return outcome

    monkeypatch.setattr(ForkingPickler, "loads", staticmethod(loads))
    monkeypatch.setattr(jobs_mod, "result_to_wire", refuse)
    monkeypatch.setattr(jobs_mod.ComputePool, "run", recording_run)
    with ReproServer(ServiceConfig(workers=1, processes=2)) as server:
        body = _raw(server.url, "/discover", {"scenario": CASE})
    [(kind, (stats, raw))] = received
    assert kind == "ok"
    assert type(stats) is dict and stats["time_discover_s"] > 0
    assert type(raw) is bytes
    assert _result_fragment(body) == raw
    assert not [name for name in unpickled if "DiscoveryResult" in name]
