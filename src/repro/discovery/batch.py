"""Batch discovery: shared indexes and fault isolation.

:func:`discover_many` runs a list of :class:`Scenario` specs through
:class:`~repro.discovery.mapper.SemanticMapper`, one after another in
this process. The shared-computation layer does the heavy lifting
automatically: scenarios over the same schema pair hit the same
:class:`~repro.perf.GraphIndex` and translation memos, so a
whole-dataset run pays the per-graph costs once.

Work spreads over processes one level up, not here: ``repro evaluate
--workers N`` fans dataset pairs out
(:func:`repro.evaluation.harness.run_all`), and ``repro serve
--processes N`` runs each job's :func:`_guarded_run` in a compute
process (:class:`repro.service.jobs.ComputePool`).

Fault isolation
---------------
One bad scenario never kills the batch. Every scenario runs under a
guard that captures

* exceptions raised by ``discover()`` (including validation errors), and
* a per-scenario wall-clock timeout
  (:class:`~repro.exceptions.ScenarioTimeout`),

as structured :class:`ScenarioFailure` records in
:attr:`BatchResult.failures`. See ``docs/robustness.md``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.correspondences import CorrespondenceSet
from repro.deadline import deadline
from repro.discovery.fingerprint import (
    scenario_fingerprint,
    semantics_content_key,
)
from repro.discovery.mapper import DiscoveryResult, SemanticMapper
from repro.discovery.options import DiscoveryOptions
from repro.exceptions import BatchError, ScenarioTimeout
from repro.semantics.lav import SchemaSemantics

#: How many innermost traceback frames a :class:`ScenarioFailure` keeps.
_TRACEBACK_FRAMES = 4


@dataclass(frozen=True, eq=False)
class Scenario:
    """One discovery request: a schema pair plus correspondences.

    ``mapper_options`` stores the discovery options as a sorted tuple of
    ``(field, value)`` pairs — the picklable, fingerprint-stable storage
    form of :class:`~repro.discovery.options.DiscoveryOptions`
    (:meth:`~repro.discovery.options.DiscoveryOptions.to_pairs`), built
    by :meth:`create`. Pairs are parsed when the scenario *runs*, so a
    malformed spec built with the constructor stays a per-scenario
    failure record instead of killing batch assembly.
    """

    scenario_id: str
    source: SchemaSemantics
    target: SchemaSemantics
    correspondences: CorrespondenceSet
    mapper_options: tuple[tuple[str, object], ...] = ()

    @classmethod
    def create(
        cls,
        scenario_id: str,
        source: SchemaSemantics,
        target: SchemaSemantics,
        correspondences: CorrespondenceSet,
        options: DiscoveryOptions | None = None,
    ) -> "Scenario":
        pairs = options.to_pairs() if options is not None else ()
        return cls(scenario_id, source, target, correspondences, pairs)

    def discovery_options(self) -> DiscoveryOptions:
        """The stored pairs as a :class:`DiscoveryOptions`.

        Raises ``ValueError`` when the pairs name an unknown option or
        carry a bad value.
        """
        return DiscoveryOptions.from_pairs(self.mapper_options)

    def run(self, tracer=None) -> DiscoveryResult:
        mapper = SemanticMapper(
            self.source,
            self.target,
            self.correspondences,
            options=self.discovery_options(),
        )
        result = mapper.discover(tracer=tracer)
        result.scenario_id = self.scenario_id
        return result


@dataclass(frozen=True)
class ScenarioFailure:
    """Structured record of one scenario that did not produce a result.

    ``error_type`` is the exception class name (``"ScenarioTimeout"``,
    ``"ValidationError"``, or ``"WorkerCrashed"`` from a service compute
    process, ...), and ``traceback_summary`` the innermost frames as
    ``file:line in func`` strings.
    """

    scenario_id: str
    error_type: str
    message: str
    traceback_summary: tuple[str, ...] = ()
    elapsed_seconds: float = 0.0

    def describe(self) -> str:
        frames = (
            " <- ".join(self.traceback_summary)
            if self.traceback_summary
            else "no traceback"
        )
        return (
            f"{self.scenario_id}: {self.error_type}: {self.message} "
            f"({self.elapsed_seconds:.3f}s; {frames})"
        )

    def __str__(self) -> str:
        return self.describe()


def failure_from_exception(
    scenario_id: str, error: BaseException, elapsed: float
) -> ScenarioFailure:
    frames = tuple(
        f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
        for frame in traceback.extract_tb(error.__traceback__)[
            -_TRACEBACK_FRAMES:
        ]
    )
    return ScenarioFailure(
        scenario_id=scenario_id,
        error_type=type(error).__name__,
        message=str(error),
        traceback_summary=frames,
        elapsed_seconds=round(elapsed, 6),
    )


@dataclass
class BatchResult:
    """Per-scenario results (input order), failures, and statistics.

    ``results`` holds the scenarios that produced a
    :class:`DiscoveryResult`; ``failures`` holds a
    :class:`ScenarioFailure` for every scenario that did not.
    ``stats["scenarios"]`` counts all inputs, ``stats["succeeded"]`` /
    ``stats["failed"]`` the split.
    """

    results: list[tuple[str, DiscoveryResult]]
    stats: dict[str, int | float] = field(default_factory=dict)
    failures: list[ScenarioFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def result_for(self, scenario_id: str) -> DiscoveryResult:
        for found_id, result in self.results:
            if found_id == scenario_id:
                return result
        failure = self.failure_for(scenario_id)
        if failure is not None:
            raise KeyError(
                f"scenario {scenario_id!r} failed: {failure.describe()}"
            )
        raise KeyError(scenario_id)

    def failure_for(self, scenario_id: str) -> ScenarioFailure | None:
        for failure in self.failures:
            if failure.scenario_id == scenario_id:
                return failure
        return None

    def raise_first_failure(self) -> None:
        """Re-surface the first failure as a :class:`BatchError` (fail-fast)."""
        if self.failures:
            raise BatchError(self.failures[0].describe())

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


# The benchmark's span table still wraps this name; it is
# ``repro.discovery.fingerprint.semantics_content_key``.
_semantics_content_key = semantics_content_key


def _guarded_run(
    scenario: Scenario, timeout_seconds: float | None
) -> tuple[str, object]:
    """Run one scenario under fault isolation.

    Returns ``("ok", DiscoveryResult)`` or ``("error", ScenarioFailure)``;
    never raises for scenario-level problems.
    """
    start = time.perf_counter()
    try:
        with deadline(timeout_seconds, scenario.scenario_id):
            result = scenario.run()
    except Exception as error:
        elapsed = time.perf_counter() - start
        return (
            "error",
            failure_from_exception(scenario.scenario_id, error, elapsed),
        )
    return ("ok", result)


def _aggregate_stats(
    results: Iterable[tuple[str, DiscoveryResult]],
    total: int,
    failures: Sequence[ScenarioFailure],
) -> dict[str, int | float]:
    """Sum the per-scenario stats: counters as ints, the ``time_`` and
    ``self_`` span seconds as floats."""
    totals: dict[str, int | float] = {}
    wall = 0.0
    succeeded = 0
    for _, result in results:
        for name, value in result.stats.items():
            totals[name] = totals.get(name, 0) + value
        wall += result.elapsed_seconds
        succeeded += 1
    stats = dict(sorted(totals.items()))
    stats["scenarios"] = total
    stats["succeeded"] = succeeded
    stats["failed"] = len(failures)
    stats["timeouts"] = sum(
        1 for f in failures if f.error_type == ScenarioTimeout.__name__
    )
    stats["total_discovery_seconds"] = round(wall, 6)
    return stats


def discover_many(
    scenarios: Sequence[Scenario],
    workers: int = 1,
    timeout_seconds: float | None = None,
) -> BatchResult:
    """Run many discovery scenarios in order, sharing work; see the
    module doc.

    ``timeout_seconds`` is the per-scenario wall-clock limit (``None``
    disables it). Discovery's searches check it at their loop heads
    (:mod:`repro.deadline`), so it stops a run the same way on any
    thread or process. ``workers`` accepts only ``1``.
    """
    if workers != 1:
        raise ValueError(
            f"discover_many runs serially (workers=1), got workers={workers}; "
            "spread work over processes with `repro evaluate --workers N` "
            "or `repro serve --processes N`"
        )
    if timeout_seconds is not None and timeout_seconds <= 0:
        raise ValueError(
            f"timeout_seconds must be positive, got {timeout_seconds}"
        )
    scenarios = list(scenarios)
    seen: set[str] = set()
    for scenario in scenarios:
        if scenario.scenario_id in seen:
            raise ValueError(
                f"duplicate scenario_id {scenario.scenario_id!r}; "
                f"ids must be unique within a batch"
            )
        seen.add(scenario.scenario_id)
    results: list[tuple[str, DiscoveryResult]] = []
    failures: list[ScenarioFailure] = []
    for scenario in scenarios:
        kind, payload = _guarded_run(scenario, timeout_seconds)
        if kind == "ok":
            results.append((scenario.scenario_id, payload))  # type: ignore[arg-type]
        else:
            failures.append(payload)  # type: ignore[arg-type]
    stats = _aggregate_stats(results, len(scenarios), failures)
    return BatchResult(results, stats, failures)


def scenarios_for_cases(
    source: SchemaSemantics,
    target: SchemaSemantics,
    cases: Iterable[tuple[str, CorrespondenceSet]],
    options: DiscoveryOptions | None = None,
) -> list[Scenario]:
    """Scenarios for many correspondence sets over one schema pair."""
    return [
        Scenario.create(
            case_id, source, target, correspondences, options=options
        )
        for case_id, correspondences in cases
    ]
