"""The HTTP/JSON mapping-discovery server (stdlib only).

Endpoints
---------
``POST /discover``
    Run (or serve from cache) one discovery scenario. Sync by default;
    ``{"mode": "async"}`` returns 202 with a job id for polling.
    Malformed requests get 400 with structured diagnostics *before*
    anything is queued; a full queue gets 429 with ``Retry-After``; a
    run stopped by the job timeout gets 504.
``POST /introspect``
    Live-database ingestion in one call: two SQLite SQL dumps + a CM in,
    mappings out. Dumps execute into in-memory databases (paths are
    refused with 400; ``ATTACH`` is denied), schemas are introspected,
    semantics recovered, correspondences seeded or accepted, and the
    assembled scenario discovered through the same queue/cache as
    ``/discover``. See ``docs/ingestion.md``.
``POST /compose``
    Pure mapping algebra: compose an S→T mapping-set document with a
    T→U one into a direct S→U set. Runs synchronously on the handler
    thread — no schemas ship and no discovery job is queued — under the
    job timeout, whose expiry gets 504. See ``docs/lifecycle.md``.
``POST /validate``
    Pre-flight a scenario through :mod:`repro.validation` without
    running it; always 200 with the diagnostic list (400 only for
    requests the wire layer cannot even parse).
``GET /jobs/<id>``
    Poll a job whose id a 202 handed out: an async accept, or a sync
    request whose wait timed out. A 200's ``job_id`` is not pollable.
``GET /health``
    Liveness plus queue/worker/cache occupancy.
``GET /metrics``
    Prometheus-style exposition of service and perf-layer counters.

Architecture: ``ThreadingHTTPServer`` accepts connections on demand
(one handler thread per in-flight request, which may block waiting on a
job), while the fixed :class:`~repro.service.jobs.JobQueue` worker pool
bounds actual discovery concurrency. This one process owns the job
table, the result cache, in-flight coalescing and the metrics; with
``ServiceConfig.processes > 1`` only the discovery runs themselves move
to a pool of compute processes. All request handling is delegated to
:class:`MappingService`, which is plain-Python callable state — tests
exercise it without sockets.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.deadline import deadline
from repro.discovery.batch import Scenario
from repro.discovery.engine import persist
from repro.exceptions import (
    QueueFullError,
    ReproError,
    ScenarioTimeout,
    WireFormatError,
)
from repro.perf import counters as perf_counters
from repro.service.cache import EncodedResult, ResultCache
from repro.service.jobs import ComputePool, JobQueue
from repro.service.metrics import ServiceMetrics, perf_gauges
from repro.service.wire import (
    WIRE_VERSION,
    DiscoverOptions,
    compose_request_from_wire,
    diagnostics_to_wire,
    discover_request_from_wire,
    introspect_request_from_wire,
    scenario_from_wire,
)
from repro.validation import validate_scenario

#: Largest accepted request body, in bytes (16 MiB fits any inline pair).
MAX_BODY_BYTES = 16 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one server instance.

    ``cache_dir`` activates the persistent cache tier
    (:mod:`repro.discovery.engine.persist`) for both the stage cache and
    the result cache, so a restart or a batch run finds what this server
    computed. ``processes`` above 1 moves discovery into that many
    compute processes (:class:`~repro.service.jobs.ComputePool`) and
    runs ``workers × processes`` job threads; the job table, caches and
    metrics stay in the server process.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_capacity: int = 64
    cache_entries: int = 256
    cache_ttl_seconds: float | None = 3600.0
    request_timeout_seconds: float = 120.0
    job_timeout_seconds: float | None = None
    quiet: bool = True
    cache_dir: str | None = None
    processes: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.processes < 1:
            raise ValueError(
                f"processes must be >= 1, got {self.processes}"
            )
        if self.request_timeout_seconds <= 0:
            raise ValueError("request_timeout_seconds must be positive")
        job_timeout = self.job_timeout_seconds
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout_seconds must be positive")
        if self.cache_dir is not None and not self.cache_dir:
            raise ValueError("cache_dir must be a non-empty path or None")


def _error_payload(
    error_type: str, message: str, **extra: Any
) -> dict[str, Any]:
    payload = {"type": error_type, "message": message}
    payload.update(extra)
    return payload


def _failed_job_status(error: dict[str, Any]) -> int:
    """504 for a job its ``--job-timeout`` stopped, else 500."""
    return 504 if error.get("type") == ScenarioTimeout.__name__ else 500


def _side_to_wire(side: Any) -> dict[str, Any]:
    """One ingested side's provenance for the ``/introspect`` response."""
    semantics = side.recovery.semantics
    return {
        "schema": semantics.schema.name,
        "tables": len(semantics.schema),
        "recovered": len(semantics.tables_with_semantics()),
        "coverage": round(side.recovery.coverage(), 4),
        "introspection": diagnostics_to_wire(side.introspection.diagnostics),
    }


def _verify_result(result: Any, ingested: Any) -> dict[str, Any]:
    """Check a finished job's mappings against the sampled instances.

    The job payload is the encoded wire document (possibly replayed from
    the result cache), so candidates are reconstructed from their
    serialized form rather than assuming an in-memory
    ``DiscoveryResult`` exists.
    """
    from repro.mappings.serialize import candidate_from_dict
    from repro.mappings.verify import verify_mappings

    candidates = [
        candidate_from_dict(entry)
        for entry in result["mapping"]["candidates"]
    ]
    tgds = [
        candidate.to_tgd(f"M{index}")
        for index, candidate in enumerate(candidates, start=1)
    ]
    verification = verify_mappings(
        tgds, ingested.source_instance, ingested.target_instance
    )
    return {
        "ok": verification.ok,
        "satisfied": list(verification.satisfied),
        "violations": [str(v) for v in verification.violated],
        "sampled_rows": {
            "source": ingested.source_instance.size(),
            "target": ingested.target_instance.size(),
        },
    }


def _json_bytes(payload: dict[str, Any]) -> bytes:
    """``json.dumps(payload, sort_keys=True)`` as UTF-8 bytes, with each
    top-level :class:`EncodedResult` written as its stored bytes.

    The sorted-key encoding of a dict is its sorted items, each encoded
    alone, so splicing ``raw`` in yields the same bytes as encoding the
    decoded result in place.
    """
    items = b", ".join(
        json.dumps(key).encode("utf-8")
        + b": "
        + (
            value.raw
            if isinstance(value, EncodedResult)
            else json.dumps(value, sort_keys=True).encode("utf-8")
        )
        for key, value in sorted(payload.items())
    )
    return b"{" + items + b"}"


def _versioned(payload: dict[str, Any]) -> dict[str, Any]:
    """Stamp one response envelope with the wire-format version."""
    payload.setdefault("version", WIRE_VERSION)
    return payload


def _versioned_handler(fn):
    """Decorator versioning a ``(status, payload)`` handler's envelope."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> tuple[int, dict[str, Any]]:
        status, payload = fn(*args, **kwargs)
        return status, _versioned(payload)

    return wrapper


class MappingService:
    """Transport-independent request handling and shared state."""

    #: Sentinel distinguishing "never touched persistence" from
    #: "previous configured dir was None".
    _UNSET = object()

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        store = None
        self._previous_cache_dir: Any = self._UNSET
        if config.cache_dir is not None:
            # Configure process-wide so every discovery run in this
            # process (jobs, batch re-runs) hits the same disk tier;
            # remember the previous setting for close() — tests spin up
            # many services in one process.
            self._previous_cache_dir = persist.configured_dir()
            persist.configure(config.cache_dir)
            store = persist.store_for(config.cache_dir)
        self.cache = ResultCache(
            max_entries=config.cache_entries,
            ttl_seconds=config.cache_ttl_seconds,
            store=store,
        )
        pool = None
        if config.processes > 1:
            pool = ComputePool(config.processes, config.cache_dir)
        self.jobs = JobQueue(
            workers=config.workers * config.processes,
            capacity=config.queue_capacity,
            cache=self.cache,
            metrics=self.metrics,
            timeout_seconds=config.job_timeout_seconds,
            pool=pool,
        )
        self.started_at = time.monotonic()

    # ------------------------------------------------------------------
    # POST /discover
    # ------------------------------------------------------------------
    @_versioned_handler
    def handle_discover(self, payload: Any) -> tuple[int, dict[str, Any]]:
        try:
            scenario, options = discover_request_from_wire(payload)
        except WireFormatError as error:
            return 400, {
                "status": "bad-request",
                "error": _error_payload("WireFormatError", str(error)),
            }
        report = validate_scenario(scenario)
        if report.errors:
            self.metrics.inc("validation_failures_total")
            return 400, {
                "status": "invalid",
                "scenario_id": scenario.scenario_id,
                "error": _error_payload(
                    "ValidationError",
                    f"{len(report.errors)} validation error(s); "
                    f"see diagnostics",
                    diagnostics=diagnostics_to_wire(report),
                ),
            }
        return self._submit_and_answer(scenario, options)

    def _submit_and_answer(
        self, scenario: Scenario, options: DiscoverOptions, **extra: Any
    ) -> tuple[int, dict[str, Any]]:
        """Queue one validated scenario and answer for it.

        429 on a full queue, 202 for an async accept or a sync wait that
        timed out, the job's failure status, or 200 with its result.
        ``extra`` fields (the ``/introspect`` ``ingest`` summary) ride
        along on every answer. A coalesced submit returns the *first*
        submitter's job, so each answer echoes the caller's own
        ``scenario_id`` over the job's: clients correlate by the id
        they supplied.
        """
        scenario_id = scenario.scenario_id
        try:
            job, from_cache = self.jobs.submit(
                scenario, use_cache=options.use_cache
            )
        except QueueFullError as error:
            return 429, {
                "status": "rejected",
                "scenario_id": scenario_id,
                **extra,
                "error": _error_payload("QueueFullError", str(error)),
            }
        if options.mode == "async":
            self.jobs.retain(job)
            return 202, {
                "status": "accepted",
                **job.to_wire(),
                "scenario_id": scenario_id,
                **extra,
            }
        timeout = (
            options.timeout_seconds
            if options.timeout_seconds is not None
            else self.config.request_timeout_seconds
        )
        if not job.wait(timeout):
            self.jobs.retain(job)
            return 202, {
                "status": "pending",
                "detail": (
                    f"job not finished after {timeout}s; poll "
                    f"GET /jobs/{job.job_id}"
                ),
                **job.to_wire(),
                "scenario_id": scenario_id,
                **extra,
            }
        if job.state == "error":
            return _failed_job_status(job.error), {
                "status": "error",
                "job_id": job.job_id,
                "scenario_id": scenario_id,
                **extra,
                "error": job.error,
            }
        return 200, {
            "status": "ok",
            "job_id": job.job_id,
            "scenario_id": scenario_id,
            "cached": from_cache,
            **extra,
            "result": job.result,
        }

    # ------------------------------------------------------------------
    # POST /introspect
    # ------------------------------------------------------------------
    @_versioned_handler
    def handle_introspect(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """Ingest two SQL dumps end to end: introspect → recover →
        correspond → validate → discover, in one call.

        The databases arrive as SQL text — requests naming filesystem
        paths never get past the wire layer (400). With the default
        ``sqlite`` backend the text is executed into in-memory
        connections under an ``ATTACH``-denying authorizer; with
        ``pgdump`` it is *parsed*, never executed; ``auto`` sniffs each
        dump's dialect. Discovery itself goes through the same job
        queue and result cache as ``POST /discover``, so an ingested
        scenario whose content fingerprint matches a previous run is
        served warm.
        """
        from repro.exceptions import IngestError
        from repro.ingest import ingest_pair

        try:
            request = introspect_request_from_wire(payload)
        except WireFormatError as error:
            return 400, {
                "status": "bad-request",
                "error": _error_payload("WireFormatError", str(error)),
            }
        try:
            ingested = ingest_pair(
                request.source_sql,
                request.target_sql,
                request.source_model,
                request.target_model,
                scenario_id=request.scenario_id,
                correspondences=request.correspondences,
                threshold=request.threshold,
                options=request.options.discovery,
                sample_rows=request.sample_rows,
                strict=request.strict,
                backend=request.backend,
            )
        except IngestError as error:
            self.metrics.inc("ingest_failures_total")
            return 400, {
                "status": "bad-request",
                "error": _error_payload("IngestError", str(error)),
            }
        report = ingested.validation()
        report.extend(validate_scenario(ingested.scenario))
        ingest_summary = {
            "source": _side_to_wire(ingested.source),
            "target": _side_to_wire(ingested.target),
            "correspondences": [
                f"{c.source} <-> {c.target}"
                for c in ingested.correspondences
            ],
            "suggestions": [str(s) for s in ingested.suggestions],
            "diagnostics": diagnostics_to_wire(report),
        }
        if report.errors:
            self.metrics.inc("validation_failures_total")
            return 400, {
                "status": "invalid",
                "scenario_id": request.scenario_id,
                "ingest": ingest_summary,
                "error": _error_payload(
                    "ValidationError",
                    f"{len(report.errors)} error(s) ingesting the pair; "
                    f"see ingest.diagnostics",
                ),
            }
        status, response = self._submit_and_answer(
            ingested.scenario, request.options, ingest=ingest_summary
        )
        if status == 200 and request.verify:
            response["verification"] = _verify_result(
                response["result"], ingested
            )
        return status, response

    # ------------------------------------------------------------------
    # POST /compose
    # ------------------------------------------------------------------
    @_versioned_handler
    def handle_compose(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """Compose two shipped mapping sets; pure algebra, no queueing."""
        from repro.mappings.algebra import compose
        from repro.mappings.serialize import mapping_set_to_dict

        try:
            request = compose_request_from_wire(payload)
        except WireFormatError as error:
            return 400, {
                "status": "bad-request",
                "error": _error_payload("WireFormatError", str(error)),
            }
        try:
            with perf_counters.scope() as counters, deadline(
                self.config.job_timeout_seconds, "compose"
            ):
                composed = compose(
                    request.first, request.second, prune=request.prune
                )
        except ScenarioTimeout as error:
            return 504, {
                "status": "error",
                "error": _error_payload("ScenarioTimeout", str(error)),
            }
        self.metrics.inc("compositions_total")
        for name, value in counters.snapshot().items():
            self.metrics.add_perf(name, value)
        return 200, {
            "status": "ok",
            "mapping": mapping_set_to_dict(composed),
            "composed": len(composed),
            "inputs": {
                "first": len(request.first),
                "second": len(request.second),
            },
            "rewrite_limit_hits": counters.counts["rewrite_limit_hits"],
        }

    # ------------------------------------------------------------------
    # POST /validate
    # ------------------------------------------------------------------
    @_versioned_handler
    def handle_validate(self, payload: Any) -> tuple[int, dict[str, Any]]:
        try:
            if not isinstance(payload, dict) or "scenario" not in payload:
                raise WireFormatError(
                    "request body needs a 'scenario' object"
                )
            scenario = scenario_from_wire(payload["scenario"])
        except WireFormatError as error:
            return 400, {
                "status": "bad-request",
                "error": _error_payload("WireFormatError", str(error)),
            }
        report = validate_scenario(scenario)
        return 200, {
            "status": "ok" if report.ok else "invalid",
            "ok": report.ok,
            "scenario_id": scenario.scenario_id,
            "diagnostics": diagnostics_to_wire(report),
        }

    # ------------------------------------------------------------------
    # GET /jobs/<id>, /health, /metrics
    # ------------------------------------------------------------------
    @_versioned_handler
    def handle_job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        job = self.jobs.job(job_id)
        if job is None:
            return 404, {
                "status": "not-found",
                "error": _error_payload(
                    "UnknownJob", f"no job {job_id!r} (it may have aged out)"
                ),
            }
        return 200, job.to_wire()

    @_versioned_handler
    def health(self) -> tuple[int, dict[str, Any]]:
        return 200, {
            "status": "ok",
            "workers": self.jobs.workers,
            "processes": self.config.processes,
            "queue_depth": self.jobs.depth(),
            "queue_capacity": self.config.queue_capacity,
            "jobs": self.jobs.state_counts(),
            "cache": self.cache.stats(),
            "uptime_seconds": round(
                time.monotonic() - self.started_at, 3
            ),
        }

    def metrics_text(self) -> str:
        gauges: dict[str, int | float] = {
            "repro_service_queue_depth": self.jobs.depth(),
            "repro_service_queue_capacity": self.config.queue_capacity,
            "repro_service_workers": self.jobs.workers,
            "repro_service_processes": self.config.processes,
            "repro_service_uptime_seconds": round(
                time.monotonic() - self.started_at, 3
            ),
        }
        for name, value in self.cache.stats().items():
            gauges[f"repro_service_result_cache_{name}"] = value
        gauges.update(perf_gauges(self.metrics.perf_totals().items()))
        return self.metrics.render(gauges)

    def close(self) -> None:
        self.jobs.stop()
        if self._previous_cache_dir is not self._UNSET:
            persist.configure(self._previous_cache_dir)
            self._previous_cache_dir = self._UNSET


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the attached :class:`MappingService`."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> MappingService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if not self.service.config.quiet:
            super().log_message(format, *args)

    # -- routing ---------------------------------------------------------
    def do_GET(self) -> None:
        # Metrics are recorded *before* the response goes out: a client
        # that reads its response and immediately polls /metrics must
        # see its own request counted.
        started = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        text: str | None = None
        payload: dict[str, Any] = {}
        if path == "/health":
            endpoint = "health"
        elif path == "/metrics":
            endpoint = "metrics"
        elif path.startswith("/jobs/"):
            endpoint = "jobs"
        else:
            endpoint = "unknown"
        try:
            if endpoint == "health":
                status, payload = self.service.health()
            elif endpoint == "metrics":
                status, text = 200, self.service.metrics_text()
            elif endpoint == "jobs":
                status, payload = self.service.handle_job(
                    path[len("/jobs/"):]
                )
            else:
                status, payload = 404, {
                    "status": "not-found",
                    "error": _error_payload(
                        "UnknownEndpoint", f"no endpoint {path!r}"
                    ),
                }
        except ReproError as error:
            status, payload = 400, {
                "status": "bad-request",
                "error": _error_payload(type(error).__name__, str(error)),
            }
        except Exception as error:  # never kill the handler thread
            status, payload = 500, {
                "status": "error",
                "error": _error_payload(type(error).__name__, str(error)),
            }
        self._record(endpoint, status, started)
        if text is not None:
            self._send_text(status, text)
        else:
            self._send_json(status, payload)

    def do_POST(self) -> None:
        started = time.perf_counter()
        path = self.path.split("?", 1)[0].rstrip("/")
        routes = {
            "/discover": ("discover", self.service.handle_discover),
            "/introspect": ("introspect", self.service.handle_introspect),
            "/compose": ("compose", self.service.handle_compose),
            "/validate": ("validate", self.service.handle_validate),
        }
        if path not in routes:
            self._record("unknown", 404, started)
            self._send_json(
                404,
                {
                    "status": "not-found",
                    "error": _error_payload(
                        "UnknownEndpoint", f"no endpoint {path!r}"
                    ),
                },
            )
            return
        endpoint, handler = routes[path]
        try:
            payload = self._read_json()
        except WireFormatError as error:
            status, body = 400, {
                "status": "bad-request",
                "error": _error_payload("WireFormatError", str(error)),
            }
        else:
            try:
                status, body = handler(payload)
            except ReproError as error:
                status, body = 400, {
                    "status": "bad-request",
                    "error": _error_payload(
                        type(error).__name__, str(error)
                    ),
                }
            except Exception as error:  # never kill the handler thread
                status, body = 500, {
                    "status": "error",
                    "error": _error_payload(
                        type(error).__name__, str(error)
                    ),
                }
        headers = {"Retry-After": "1"} if status == 429 else None
        self._record(endpoint, status, started)
        self._send_json(status, body, headers)

    # -- plumbing --------------------------------------------------------
    def _read_json(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise WireFormatError("bad Content-Length header") from None
        if length < 0:
            # rfile.read(-1) on a keep-alive connection would block until
            # the client hangs up, pinning this handler thread.
            raise WireFormatError("negative Content-Length header")
        if length > MAX_BODY_BYTES:
            raise WireFormatError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            raise WireFormatError(
                f"request body is not valid JSON: {error}"
            ) from None

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = _json_bytes(_versioned(payload))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _record(self, endpoint: str, status: int, started: float) -> None:
        self.service.metrics.inc(
            "requests_total", endpoint=endpoint, status=str(status)
        )
        self.service.metrics.observe(
            endpoint, time.perf_counter() - started
        )


#: How often a serving loop looks for a shutdown request. ``shutdown()``
#: waits for the loop to notice, so this bounds how long a stop takes
#: (socketserver's own default is 0.5 s).
POLL_SECONDS = 0.05


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stock listen backlog of 5 drops (or resets) connections under
    # a burst of a few dozen concurrent clients — the exact traffic this
    # server exists to absorb. Handler threads are cheap; let the kernel
    # queue the burst instead. Sized for the 1000-client load harness
    # (the kernel clamps to net.core.somaxconn).
    request_queue_size = 1024


class ReproServer:
    """A running service: HTTP listener + worker pool, ready to stop."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.service = MappingService(self.config)
        self._httpd = _HTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ReproServer":
        """Serve in a background thread; returns self for chaining."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(POLL_SECONDS,),
            name="repro-service-listener",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI mode)."""
        try:
            self._httpd.serve_forever(POLL_SECONDS)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop the serve loop, then :meth:`close`."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.close()

    def close(self) -> None:
        """Release the socket and stop the workers, stopping no serve
        loop: for a server whose loop never started, which
        :meth:`shutdown` would wait for forever."""
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
