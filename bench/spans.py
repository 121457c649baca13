"""Span recording around the layers of ``repro``, installed from outside.

The benchmark never edits ``src/``: each layer is timed by replacing the
name its caller looks up (a module global or a class attribute) with a
wrapper that records one span per call, and putting the original back
afterwards. A span is ``(id, parent, name, start, end, note)``; the
parent is the innermost open span on the same thread, so spans of one
operation share their root. ``note`` holds a per-call fact a ratio needs
(a cache hit, a rewrite's limit and output size) and is ``None``
otherwise. Spans stay in memory until the run ends.

Self time is a span's duration minus the time its direct children
cover. :func:`layer_metrics` turns one run's spans into the per-layer
metrics that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict


def _hit(fn, args, kwargs, result):
    return result is not None


def _rewrite_note(fn, args, kwargs, result):
    """The call's ``limit`` (its default read from ``fn`` itself, so a new
    default is picked up) and how many rewritings it returned."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return (bound.arguments["limit"], len(result) if result is not None else 0)


def _input_size(fn, args, kwargs, result):
    return len(args[0])


def _queue_wait(fn, args, kwargs, result):
    job = args[0]
    return job.started_at - job.submitted_at


#: Every wrapped name: (span name, module, attribute path, note).
#: A name is wrapped where its caller looks it up, so the same function
#: can appear once per importing module.
LAYERS = (
    ("validate", "repro.discovery.mapper", "SemanticMapper.__init__", None),
    ("lift", "repro.discovery.engine.stages", "SemanticEngine._lift", None),
    ("target_csgs", "repro.discovery.engine.stages",
     "SemanticEngine._target_csgs", None),
    ("source_search", "repro.discovery.engine.stages",
     "SemanticEngine._fused_search", None),
    ("source_search.functional", "repro.discovery.engine.stages",
     "find_source_functional_csgs", None),
    ("source_search.lossy", "repro.discovery.engine.stages",
     "extend_partial_trees", None),
    ("pair_filter", "repro.discovery.engine.stages",
     "SemanticEngine._trees_consistent", None),
    ("pair_filter.paths", "repro.discovery.engine.stages",
     "SemanticEngine._pair_compatible", _hit),
    ("rank", "repro.discovery.engine.stages", "SemanticEngine._rank", None),
    ("translate", "repro.discovery.engine.stages", "translate_csg", None),
    ("translate.encode", "repro.discovery.translate", "csg_to_cm_query",
     None),
    ("rewrite", "repro.discovery.translate", "rewrite_query", _rewrite_note),
    ("rewrite.chase", "repro.queries.rewrite", "chase_with_keys", None),
    ("rewrite.minimize", "repro.queries.rewrite", "minimize", None),
    ("rewrite.keep_maximal", "repro.queries.rewrite", "keep_maximal",
     _input_size),
    ("fingerprint", "repro.discovery.engine.stages", "semantics_content_key",
     None),
    ("fingerprint", "repro.discovery.engine.stages", "stage_fingerprint",
     None),
    ("fingerprint", "repro.discovery.engine.stages", "csg_content_key", None),
    ("fingerprint", "repro.discovery.fingerprint", "discovery_fingerprint",
     None),
    ("fingerprint", "repro.discovery.batch", "_semantics_content_key", None),
    ("fingerprint", "repro.service.jobs", "scenario_fingerprint", None),
    ("stage_cache", "repro.discovery.engine.cache", "StageCache.get", _hit),
    ("stage_cache.put", "repro.discovery.engine.cache", "StageCache.put",
     None),
    ("service.http", "repro.service.server", "_Handler.handle", None),
    ("service.parse", "repro.service.server", "_Handler._read_json", None),
    ("service.parse", "repro.service.server", "discover_request_from_wire",
     None),
    ("service.validate", "repro.service.server", "validate_scenario", None),
    ("service.result_cache", "repro.service.cache", "ResultCache.get", _hit),
    ("service.job_wait", "repro.service.jobs", "Job.wait", None),
    ("service.queue", "repro.service.jobs", "Job.mark_running", _queue_wait),
    ("service.compute", "repro.service.jobs", "discover_many", None),
    ("service.serialize", "repro.service.jobs", "result_to_wire", None),
    ("service.serialize", "repro.service.server", "_Handler._send_json",
     None),
)


class _Frames(threading.local):
    def __init__(self) -> None:
        self.open: list[int] = []


class SpanRecorder:
    """Holds the spans of one process and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._frames = _Frames()
        self._originals: list[tuple[object, str, object, bool]] = []

    def wrap(self, name, fn, note=None):
        """``fn`` wrapped to record one span named ``name`` per call."""
        frames = self._frames
        ids = self._ids
        record = self.spans.append
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = frames.open
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                record(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        note(fn, args, kwargs, result) if note else None,
                    )
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every name in :data:`LAYERS` with its recording wrapper."""
        if self._originals:
            return
        for name, module_name, path, note in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            inherited = attribute not in owner.__dict__
            self._originals.append((owner, attribute, original, inherited))
            setattr(owner, attribute, self.wrap(name, original, note))

    def uninstall(self) -> None:
        """Put every wrapped name back (in reverse, so repeats unwind)."""
        while self._originals:
            owner, attribute, original, inherited = self._originals.pop()
            if inherited:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        covered[parent] += end - start
    return {
        span_id: (end - start) - covered.get(span_id, 0.0)
        for span_id, _, _, start, end, _ in spans
    }


#: Per-layer metric names and units, in report order. ``BENCHMARK.json``
#: lists the same names; ``test_bench.py`` checks that they agree. The
#: entries from ``trace.overhead`` on are computed by ``workloads.py``
#: from the untraced passes of a traced run, not from spans.
LAYER_METRICS = (
    ("validate.self_ms", "ms"),
    ("lift.self_ms", "ms"),
    ("target_csgs.self_ms", "ms"),
    ("target_csgs.calls", "count"),
    ("source_search.self_ms", "ms"),
    ("source_search.functional.self_ms", "ms"),
    ("source_search.functional.calls", "count"),
    ("source_search.lossy.self_ms", "ms"),
    ("source_search.lossy.calls", "count"),
    ("pair_filter.self_ms", "ms"),
    ("pair_filter.calls", "count"),
    ("pair_filter.pass_ratio", "ratio"),
    ("rank.self_ms", "ms"),
    ("translate.self_ms", "ms"),
    ("translate.calls", "count"),
    ("translate.memo_hit_ratio", "ratio"),
    ("translate.encode.self_ms", "ms"),
    ("rewrite.self_ms", "ms"),
    ("rewrite.calls", "count"),
    ("rewrite.expanded", "count"),
    ("rewrite.kept_ratio", "ratio"),
    ("rewrite.calls_at_cap", "count"),
    ("rewrite.chase.self_ms", "ms"),
    ("rewrite.minimize.self_ms", "ms"),
    ("rewrite.keep_maximal.self_ms", "ms"),
    ("rewrite.keep_maximal.input", "count"),
    ("fingerprint.self_ms", "ms"),
    ("fingerprint.calls", "count"),
    ("stage_cache.self_ms", "ms"),
    ("stage_cache.hit_ratio", "ratio"),
    ("service.parse.self_ms", "ms"),
    ("service.validate.self_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.compute.self_ms", "ms"),
    ("service.serialize.self_ms", "ms"),
    ("service.result_cache.hit_ratio", "ratio"),
    ("service.job_wait.self_ms", "ms"),
    ("service.http.self_ms", "ms"),
    ("other.self_ms", "ms"),
    ("other.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("throughput_ops", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("service.cached_p50_ms", "ms"),
    ("service.uncached_p50_ms", "ms"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans, ops: int, op_seconds: float, other_seconds: float | None = None
) -> dict[str, float]:
    """Per-op layer metrics from one run's spans.

    ``ops`` is the number of traced operations and ``op_seconds`` their
    total time. ``other_seconds`` is the time no span covers; when it is
    ``None`` it is the self time of the ``op`` root spans the workload
    opens around each operation.
    """
    selfs = self_times(spans)
    names = {span[0]: span[2] for span in spans}
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    expanded: dict[int, int] = defaultdict(int)
    minimized: dict[int, int] = defaultdict(int)
    for span_id, parent, name, _, _, note in spans:
        self_s[name] += selfs[span_id]
        if names.get(parent) != name:
            calls[name] += 1
        if note is not None:
            notes[name].append((span_id, note))
        if name == "rewrite.chase":
            expanded[parent] += 1
        elif name == "rewrite.minimize":
            minimized[parent] += 1

    per_op = max(ops, 1)

    def ms(*layer_names: str) -> float:
        return sum(self_s[layer] for layer in layer_names) * 1000.0 / per_op

    def count(layer: str) -> float:
        return calls[layer] / per_op

    rewrites = notes["rewrite"]
    sizes = [
        expanded.get(span_id) or minimized.get(span_id, 0)
        for span_id, _ in rewrites
    ]
    kept = sum(note[1] for _, note in rewrites)
    at_cap = sum(
        1 for size, (_, note) in zip(sizes, rewrites) if size >= note[0]
    )
    maximal_inputs = [note for _, note in notes["rewrite.keep_maximal"]]
    pair_passes = sum(1 for _, passed in notes["pair_filter.paths"] if passed)
    stage_hits = [hit for _, hit in notes["stage_cache"]]
    result_hits = [hit for _, hit in notes["service.result_cache"]]
    waits = [wait for _, wait in notes["service.queue"]]
    if other_seconds is None:
        other_seconds = self_s["op"]
    return {
        "validate.self_ms": ms("validate"),
        "lift.self_ms": ms("lift"),
        "target_csgs.self_ms": ms("target_csgs"),
        "target_csgs.calls": count("target_csgs"),
        "source_search.self_ms": ms("source_search"),
        "source_search.functional.self_ms": ms("source_search.functional"),
        "source_search.functional.calls": count("source_search.functional"),
        "source_search.lossy.self_ms": ms("source_search.lossy"),
        "source_search.lossy.calls": count("source_search.lossy"),
        "pair_filter.self_ms": ms("pair_filter", "pair_filter.paths"),
        "pair_filter.calls": count("pair_filter"),
        "pair_filter.pass_ratio": _ratio(pair_passes, calls["pair_filter"]),
        "rank.self_ms": ms("rank"),
        "translate.self_ms": ms("translate"),
        "translate.calls": count("translate"),
        "translate.memo_hit_ratio": (
            1.0 - calls["rewrite"] / calls["translate"]
            if calls["translate"]
            else 0.0
        ),
        "translate.encode.self_ms": ms("translate.encode"),
        "rewrite.self_ms": ms("rewrite"),
        "rewrite.calls": count("rewrite"),
        "rewrite.expanded": _ratio(sum(sizes), len(sizes)),
        "rewrite.kept_ratio": _ratio(kept, sum(sizes)),
        "rewrite.calls_at_cap": at_cap / per_op,
        "rewrite.chase.self_ms": ms("rewrite.chase"),
        "rewrite.minimize.self_ms": ms("rewrite.minimize"),
        "rewrite.keep_maximal.self_ms": ms("rewrite.keep_maximal"),
        "rewrite.keep_maximal.input": _ratio(
            sum(maximal_inputs), len(maximal_inputs)
        ),
        "fingerprint.self_ms": ms("fingerprint"),
        "fingerprint.calls": count("fingerprint"),
        "stage_cache.self_ms": ms("stage_cache", "stage_cache.put"),
        "stage_cache.hit_ratio": _ratio(sum(stage_hits), len(stage_hits)),
        "service.parse.self_ms": ms("service.parse"),
        "service.validate.self_ms": ms("service.validate"),
        "service.queue_wait_ms": _ratio(sum(waits), len(waits)) * 1000.0,
        "service.compute.self_ms": ms("service.compute"),
        "service.serialize.self_ms": ms("service.serialize"),
        "service.result_cache.hit_ratio": _ratio(
            sum(result_hits), len(result_hits)
        ),
        "service.job_wait.self_ms": ms("service.job_wait"),
        "service.http.self_ms": ms("service.http"),
        "other.self_ms": other_seconds * 1000.0 / per_op,
        "other.share": _ratio(other_seconds, op_seconds),
    }
