"""Service instrumentation: request/cache/job counters and latency quantiles.

A :class:`ServiceMetrics` instance is the single metrics sink of one
server. It layers on :mod:`repro.perf`: the service counts *requests*
(how often, how fast, served from where), and sums the *algorithmic*
events (Dijkstra sweeps, cache memo traffic) that each discovery run
reports in its ``DiscoveryResult.stats`` — wherever the run computed,
in the server process or in a compute process. The server renders both
in one Prometheus-style text document for ``GET /metrics``.

Counter vocabulary (all exported with the ``repro_service_`` prefix):

``requests_total{endpoint,status}``
    every HTTP request, by endpoint and response status;
``request_seconds{endpoint,quantile}`` / ``_count`` / ``_sum``
    handler latency, with p50/p95 from a bounded reservoir;
``cache_hits_total`` / ``cache_misses_total``
    discovery requests served without / with recomputation — a "hit"
    includes coalescing onto an in-flight identical job
    (``cache_coalesced_total`` counts that subset);
``discovery_invocations_total``
    jobs that actually ran the discovery pipeline;
``jobs_completed_total`` / ``jobs_failed_total`` / ``jobs_rejected_total``
    job outcomes, with rejections being 429 backpressure;
``validation_failures_total``
    requests refused with 400 before burning a worker slot;
``phase_seconds{phase,quantile}`` / ``_count`` / ``_sum``
    per-pipeline-phase discovery latency, fed from each completed job's
    ``time_<phase>_s`` stats by the job queue — phase names are the
    staged engine's ``STAGE_NAMES`` (lift, target_csgs, source_search,
    pair_filter, translate, rank) plus ``discover`` (and ``clio`` for
    baseline-engine runs);
``stage_cache_hits_total{stage}`` / ``stage_cache_misses_total{stage}``
    the staged engine's artifact-cache traffic by stage name, fed from
    each completed job's ``stage_cache_hit_<stage>`` /
    ``stage_cache_miss_<stage>`` stats (see
    :func:`repro.service.jobs.observe_run_stats`).

The algorithmic counter totals ride along under ``repro_perf_`` —
including the distance-oracle vocabulary (``oracle_sweeps``,
``astar_expansions``, ``bound_prunes``, ``lossy_prefix_skips``,
``required_subtree_prunes``; see
:mod:`repro.perf.counters`) — so a scrape sees search-guidance
effectiveness next to request health.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Iterable, Mapping

#: Quantiles exported per endpoint.
QUANTILES = (0.5, 0.95)

#: Metric-name prefixes in the exposition document.
PREFIX = "repro_service_"
PERF_PREFIX = "repro_perf_"

_LabelKey = tuple[tuple[str, str], ...]


def _labels_key(labels: Mapping[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(labels: _LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in labels)
    return "{" + inner + "}"


def _sanitize(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


class ServiceMetrics:
    """Thread-safe counters plus per-endpoint latency reservoirs."""

    def __init__(self, latency_window: int = 2048) -> None:
        if latency_window < 1:
            raise ValueError(
                f"latency_window must be >= 1, got {latency_window}"
            )
        self._lock = threading.Lock()
        self._counters: Counter[tuple[str, _LabelKey]] = Counter()
        self._latency_window = latency_window
        self._samples: dict[str, deque[float]] = {}
        self._latency_count: Counter[str] = Counter()
        self._latency_sum: Counter[str] = Counter()
        self._phase_samples: dict[str, deque[float]] = {}
        self._phase_count: Counter[str] = Counter()
        self._phase_sum: Counter[str] = Counter()
        self._perf: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1, **labels: str) -> None:
        """Increment counter ``name`` (label values coerced to strings)."""
        with self._lock:
            self._counters[(name, _labels_key(labels))] += amount

    def observe(self, endpoint: str, seconds: float) -> None:
        """Record one request latency for ``endpoint``."""
        with self._lock:
            reservoir = self._samples.get(endpoint)
            if reservoir is None:
                reservoir = deque(maxlen=self._latency_window)
                self._samples[endpoint] = reservoir
            reservoir.append(seconds)
            self._latency_count[endpoint] += 1
            self._latency_sum[endpoint] += seconds

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record one discovery-pipeline phase wall time."""
        with self._lock:
            reservoir = self._phase_samples.get(phase)
            if reservoir is None:
                reservoir = deque(maxlen=self._latency_window)
                self._phase_samples[phase] = reservoir
            reservoir.append(seconds)
            self._phase_count[phase] += 1
            self._phase_sum[phase] += seconds

    def add_perf(self, name: str, amount: int) -> None:
        """Add one run's count of perf-layer counter ``name``."""
        with self._lock:
            self._perf[name] += amount

    # ------------------------------------------------------------------
    # Reading (tests and the bench harness)
    # ------------------------------------------------------------------
    def value(self, name: str, **labels: str) -> int:
        """One labelled counter's value (0 when never incremented)."""
        with self._lock:
            return self._counters[(name, _labels_key(labels))]

    def total(self, name: str) -> int:
        """Sum of ``name`` across all label combinations."""
        with self._lock:
            return sum(
                value
                for (counter, _), value in self._counters.items()
                if counter == name
            )

    def quantile(self, endpoint: str, q: float) -> float | None:
        """The ``q``-quantile of recent latencies, or ``None`` if unseen."""
        with self._lock:
            reservoir = self._samples.get(endpoint)
            if not reservoir:
                return None
            ordered = sorted(reservoir)
            index = min(len(ordered) - 1, int(q * len(ordered)))
            return ordered[index]

    def perf_totals(self) -> dict[str, int]:
        """The perf-layer counters summed over every run observed."""
        with self._lock:
            return dict(self._perf)

    def phase_names(self) -> tuple[str, ...]:
        """Phases observed so far, sorted."""
        with self._lock:
            return tuple(sorted(self._phase_count))

    # ------------------------------------------------------------------
    # Prometheus exposition
    # ------------------------------------------------------------------
    def render(
        self, gauges: Mapping[str, int | float] | None = None
    ) -> str:
        """The full ``GET /metrics`` document.

        ``gauges`` carries caller-supplied point-in-time values (queue
        depth, cache size, perf-layer counters); names are emitted as
        given, so callers choose the prefix.
        """
        lines: list[str] = []
        with self._lock:
            by_name: dict[str, list[tuple[_LabelKey, int]]] = {}
            for (name, labels), value in sorted(self._counters.items()):
                by_name.setdefault(name, []).append((labels, value))
            for name, rows in by_name.items():
                full = PREFIX + _sanitize(name)
                lines.append(f"# TYPE {full} counter")
                for labels, value in rows:
                    lines.append(f"{full}{_render_labels(labels)} {value}")
            if self._latency_count:
                full = PREFIX + "request_seconds"
                lines.append(f"# TYPE {full} summary")
                for endpoint in sorted(self._latency_count):
                    reservoir = sorted(self._samples.get(endpoint, ()))
                    for q in QUANTILES:
                        if reservoir:
                            index = min(
                                len(reservoir) - 1, int(q * len(reservoir))
                            )
                            lines.append(
                                f'{full}{{endpoint="{endpoint}",'
                                f'quantile="{q}"}} '
                                f"{reservoir[index]:.6f}"
                            )
                    lines.append(
                        f'{full}_count{{endpoint="{endpoint}"}} '
                        f"{self._latency_count[endpoint]}"
                    )
                    lines.append(
                        f'{full}_sum{{endpoint="{endpoint}"}} '
                        f"{self._latency_sum[endpoint]:.6f}"
                    )
            if self._phase_count:
                full = PREFIX + "phase_seconds"
                lines.append(f"# TYPE {full} summary")
                for phase in sorted(self._phase_count):
                    reservoir = sorted(self._phase_samples.get(phase, ()))
                    for q in QUANTILES:
                        if reservoir:
                            index = min(
                                len(reservoir) - 1, int(q * len(reservoir))
                            )
                            lines.append(
                                f'{full}{{phase="{phase}",'
                                f'quantile="{q}"}} '
                                f"{reservoir[index]:.6f}"
                            )
                    lines.append(
                        f'{full}_count{{phase="{phase}"}} '
                        f"{self._phase_count[phase]}"
                    )
                    lines.append(
                        f'{full}_sum{{phase="{phase}"}} '
                        f"{self._phase_sum[phase]:.6f}"
                    )
        for name, value in sorted((gauges or {}).items()):
            full = _sanitize(name)
            lines.append(f"# TYPE {full} gauge")
            if isinstance(value, float):
                lines.append(f"{full} {value:.6f}")
            else:
                lines.append(f"{full} {value}")
        return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, float]:
    """Parse a Prometheus-style document back into ``{series: value}``.

    Series names keep their label block verbatim
    (``repro_service_requests_total{endpoint="discover",status="200"}``).
    Used by the client's ``metrics_values`` and the load generator.
    """
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            values[series] = float(value)
        except ValueError:
            continue
    return values


def perf_gauges(counters: Iterable[tuple[str, int | float]]) -> dict[str, int | float]:
    """Perf-layer counter snapshot entries as ``repro_perf_*`` gauges."""
    return {
        PERF_PREFIX + _sanitize(name): value for name, value in counters
    }
