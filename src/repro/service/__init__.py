"""``repro.service``: mapping discovery as a long-running server.

The one-shot CLI pays graph-index and memo build costs on every
invocation; this package keeps them warm in a persistent process and
serves discovery over HTTP/JSON:

* :mod:`repro.service.wire` — the request/response format (registered
  dataset or fully inline scenarios; result payloads reuse
  :mod:`repro.mappings.serialize`);
* :mod:`repro.service.cache` — a content-addressed LRU + TTL result
  cache keyed by :func:`repro.discovery.batch.scenario_fingerprint`;
* :mod:`repro.service.jobs` — a bounded job queue and worker-thread
  pool over :func:`repro.discovery.batch.discover_many` (or, with
  ``--processes``, over :class:`~repro.service.jobs.ComputePool`, the
  compute processes that run the batch layer's guarded entry), with
  single-flight coalescing of identical in-flight requests;
* :mod:`repro.service.metrics` — request/latency/cache counters layered
  on :mod:`repro.perf`, exposed Prometheus-style at ``GET /metrics``;
* :mod:`repro.service.server` — the endpoints (``POST /discover``,
  ``POST /introspect``, ``POST /validate``, ``GET /jobs/<id>``,
  ``GET /health``, ``GET /metrics``) behind ``python -m repro serve``;
* :mod:`repro.service.client` — a thin urllib client.

See ``docs/service.md`` for the API reference, capacity/backpressure
semantics, and the cache-consistency discussion.
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.service.cache": ("ResultCache",),
        "repro.service.client": ("ServiceClient",),
        "repro.service.jobs": ("Job", "JobQueue"),
        "repro.service.metrics": ("ServiceMetrics", "parse_exposition"),
        "repro.service.server": (
            "MappingService",
            "ReproServer",
            "ServiceConfig",
        ),
        "repro.service.wire": (
            "DiscoverOptions",
            "IngestRequest",
            "diagnostics_to_wire",
            "discover_request_from_wire",
            "failure_to_wire",
            "introspect_request_from_wire",
            "resolve_dataset",
            "result_to_wire",
            "scenario_from_wire",
            "semantics_from_wire",
            "semantics_to_wire",
        ),
    },
)
