"""Span timing and explain provenance for the discovery pipeline.

Every discovery run times its stages through one span recorder, and
that recorder is the run's only clock:

* :class:`Recorder` is the always-on base. Per span name it keeps the
  call count, the total time and the *self* time (total minus the time
  of the spans directly nested in it), using a per-thread stack of open
  spans. It keeps no span tree, so an untraced run pays two clock reads
  and one table update per span. ``DiscoveryResult.stats`` carries its
  totals as ``time_<name>_s`` and its self times as ``self_<name>_s``;
  since self times never double-count, the ``self_`` values of one run
  add up to ``time_discover_s``.
* :class:`Tracer` extends it with a tree of :class:`Span` records — one
  per pipeline phase (correspondence lifting, per-target source
  search, CSG pair enumeration, compatibility checking, translation,
  ranking) — and, in *explain* mode, structured :class:`PruneEvent`
  records for every candidate a semantic filter rejected, plus
  per-candidate rank provenance.

Thread-safety: a recorder's span *stack* is thread-local (spans opened
on one thread nest under that thread's enclosing span only), while the
shared structures — the per-name table, the root span list, prune log,
provenance list, and span count — are guarded by a per-recorder lock.
One tracer may therefore observe several worker threads at once without
interleaving their span trees.

Determinism: everything except wall times is a pure function of the
discovery inputs. :meth:`Tracer.to_dict` emits spans in creation order
and prune events in elimination order, so two runs over equal inputs
produce identical documents modulo the ``elapsed_s`` fields.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Mapping

#: Trace-document format version (bumped on breaking shape changes).
TRACE_FORMAT = "repro-trace/1"


@dataclass(frozen=True)
class PruneEvent:
    """One candidate (or candidate pair) rejected by a semantic filter.

    ``rule`` names the filter that fired — the vocabulary is
    ``"disjointness.tree"``, ``"disjointness.path"``, ``"cardinality"``,
    ``"partOf"``, and ``"anchor"`` — and ``detail`` carries the
    human-readable elimination text that also lands in
    ``DiscoveryResult.eliminations``.
    """

    phase: str
    rule: str
    source_csg: str = ""
    target_csg: str = ""
    detail: str = ""

    def to_dict(self) -> dict[str, str]:
        return {
            "phase": self.phase,
            "rule": self.rule,
            "source_csg": self.source_csg,
            "target_csg": self.target_csg,
            "detail": self.detail,
        }


class _TimedSpan:
    """One open span of a :class:`Recorder`: its name and its clock.

    Use it as a context manager; closing it records its total and self
    time under its name in the recorder's table.
    """

    __slots__ = (
        "name",
        "started_at",
        "elapsed_seconds",
        "_inner_seconds",
        "_recorder",
    )

    def __init__(self, name: str, recorder: Recorder | None = None) -> None:
        self.name = name
        self._recorder = recorder
        self._inner_seconds = 0.0
        self.elapsed_seconds = 0.0
        self.started_at = perf_counter()

    def close(self) -> None:
        self.elapsed_seconds = perf_counter() - self.started_at

    def set(self, name: str, value: Any) -> None:
        """Attach one deterministic attribute (kept only by tree spans)."""

    def __enter__(self) -> Any:
        self._recorder._open(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._recorder._close(self)
        return False


class Span(_TimedSpan):
    """One timed, attributed region of the pipeline in a :class:`Tracer`.

    Spans form a tree; ``attributes`` carry small deterministic facts
    (anchor names, candidate counts), never timings — wall time lives in
    ``elapsed_seconds`` so deterministic and timing data stay separable.
    """

    __slots__ = ("attributes", "children", "events")

    def __init__(
        self,
        name: str,
        attributes: dict[str, Any] | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        super().__init__(name, recorder)
        self.attributes: dict[str, Any] = attributes or {}
        self.children: list[Span] = []
        self.events: list[PruneEvent] = []

    def set(self, name: str, value: Any) -> None:
        """Attach one deterministic attribute to the span."""
        self.attributes[name] = value

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "elapsed_s": round(self.elapsed_seconds, 6),
        }
        if self.attributes:
            data["attributes"] = {
                key: self.attributes[key] for key in sorted(self.attributes)
            }
        if self.events:
            data["prunes"] = [event.to_dict() for event in self.events]
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data


class _OpenSpans(threading.local):
    """The calling thread's stack of open spans."""

    def __init__(self) -> None:
        self.stack: list[_TimedSpan] = []


#: One span name's row in a recorder's table.
Timing = tuple[int, float, float]


class Recorder:
    """The always-on span clock of one discovery run.

    Per span name it keeps ``(calls, total seconds, self seconds)``;
    it records no tree, prune events or rank provenance (see
    :class:`Tracer`), so ``prune`` and ``rank`` do nothing here.
    """

    #: Whether spans are kept as a tree. The engine bypasses its stage
    #: cache while one is, so the tree shows real execution.
    records_tree = False
    explain = False

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open_spans = _OpenSpans()
        self._table: dict[str, list] = {}

    # -- recording -------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _TimedSpan:
        """A span nested in this thread's innermost open span.

        Use as ``with recorder.span(name) as span:``. ``attributes`` are
        kept only by a :class:`Tracer`.
        """
        return _TimedSpan(name, self)

    def _open(self, span: _TimedSpan) -> None:
        self._open_spans.stack.append(span)

    def _close(self, span: _TimedSpan) -> None:
        span.close()
        # A closed span needs its recorder no more; a Tracer's tree
        # holding spans that point back at it would be a cycle.
        span._recorder = None
        stack = self._open_spans.stack
        stack.pop()
        elapsed = span.elapsed_seconds
        if stack:
            stack[-1]._inner_seconds += elapsed
        own = elapsed - span._inner_seconds
        with self._lock:
            row = self._table.get(span.name)
            if row is None:
                self._table[span.name] = [1, elapsed, own]
            else:
                row[0] += 1
                row[1] += elapsed
                row[2] += own

    def prune(
        self,
        phase: str,
        rule: str,
        source_csg: str = "",
        target_csg: str = "",
        detail: str = "",
    ) -> None:
        """Record one filter rejection (explain mode only)."""

    def rank(self, entry: Mapping[str, Any]) -> None:
        """Record one candidate's rank provenance (explain mode only)."""

    # -- export ----------------------------------------------------------
    @property
    def span_count(self) -> int:
        """Spans closed so far."""
        with self._lock:
            return sum(row[0] for row in self._table.values())

    def timings(self) -> dict[str, Timing]:
        """``(calls, total seconds, self seconds)`` per span name, sorted."""
        with self._lock:
            return {
                name: (row[0], row[1], row[2])
                for name, row in sorted(self._table.items())
            }

    def stats(
        self, since: Mapping[str, Timing] | None = None
    ) -> dict[str, float]:
        """The ``time_<name>_s`` and ``self_<name>_s`` stats keys.

        ``since`` is an earlier :meth:`timings` snapshot of this
        recorder; only the spans closed after it count.
        """
        since = since or {}
        data: dict[str, float] = {}
        for name, (calls, total, own) in self.timings().items():
            before_calls, before_total, before_own = since.get(
                name, (0, 0.0, 0.0)
            )
            if calls == before_calls:
                continue
            data[f"time_{name}_s"] = round(total - before_total, 6)
            data[f"self_{name}_s"] = round(own - before_own, 6)
        return data


class Tracer(Recorder):
    """A :class:`Recorder` that also keeps the span tree and provenance.

    Parameters
    ----------
    explain:
        Record :class:`PruneEvent` records and per-candidate rank
        provenance in addition to spans. Plain tracing (``explain=False``)
        records only the span tree — enough for latency analysis.
    """

    records_tree = True

    def __init__(self, explain: bool = False) -> None:
        super().__init__()
        self.explain = explain
        self.roots: list[Span] = []
        self.prunes: list[PruneEvent] = []
        self.provenance: list[dict[str, Any]] = []

    # -- recording -------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """A child span of this thread's innermost open span."""
        return Span(name, attributes or None, self)

    def _open(self, span: _TimedSpan) -> None:
        stack = self._open_spans.stack
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
        stack.append(span)

    def prune(
        self,
        phase: str,
        rule: str,
        source_csg: str = "",
        target_csg: str = "",
        detail: str = "",
    ) -> None:
        """Record one filter rejection (explain mode only; no-op otherwise)."""
        if not self.explain:
            return
        event = PruneEvent(phase, rule, source_csg, target_csg, detail)
        stack = self._open_spans.stack
        if stack:
            stack[-1].events.append(event)
        with self._lock:
            self.prunes.append(event)

    def rank(self, entry: Mapping[str, Any]) -> None:
        """Record one candidate's rank provenance (explain mode only)."""
        if not self.explain:
            return
        with self._lock:
            self.provenance.append(dict(entry))

    # -- export ----------------------------------------------------------
    def prune_rules(self) -> dict[str, int]:
        """Prune-event counts by rule name (stable, sorted)."""
        counts: dict[str, int] = {}
        for event in self.prunes:
            counts[event.rule] = counts.get(event.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict[str, Any]:
        """The full trace document (see the module doc for determinism)."""
        with self._lock:
            return {
                "format": TRACE_FORMAT,
                "explain": self.explain,
                "spans": [span.to_dict() for span in self.roots],
                "prunes": [event.to_dict() for event in self.prunes],
                "provenance": [dict(entry) for entry in self.provenance],
            }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
