"""Batch discovery: shared indexes, parallel fan-out, and fault isolation.

:func:`discover_many` runs a list of :class:`Scenario` specs through
:class:`~repro.discovery.mapper.SemanticMapper`. In serial mode the
shared-computation layer does the heavy lifting automatically: scenarios
over the same schema pair hit the same :class:`~repro.perf.GraphIndex`,
reasoner memos, and translation caches, so a whole-dataset run pays the
per-graph costs once. With ``workers > 1`` scenarios fan out over a
``concurrent.futures`` process pool; scenarios are grouped by schema
pair (by *content*, so equal-but-distinct semantics objects share a
worker) and each worker process shares its caches across the group's
correspondence sets.

Fault isolation
---------------
One bad scenario never kills the batch. Every scenario runs under a
guard that captures

* exceptions raised by ``discover()`` (including validation errors),
* a configurable per-scenario wall-clock timeout
  (:class:`~repro.exceptions.ScenarioTimeout`), and
* worker-process deaths (``BrokenProcessPool`` →
  :class:`~repro.exceptions.WorkerCrashed`), with a bounded serial
  re-run for the groups the dead worker took down,

as structured :class:`ScenarioFailure` records in
:attr:`BatchResult.failures`. Every scenario is probed for picklability
before any worker is spawned; unpicklable specs degrade to serial
execution in the parent (or to a failure record, under
``BatchPolicy(on_unpicklable="fail")``) with a note, while the rest of
the batch still runs in parallel. See ``docs/robustness.md``.

Parallel and serial modes produce identical results: each scenario runs
the same deterministic ``discover()``, and outputs are re-ordered to the
input order before returning.
"""

from __future__ import annotations

import pickle
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
from repro.exceptions import BatchError, ScenarioTimeout, WorkerCrashed
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
class BatchPolicy:
    """Fault-handling knobs for one batch run.

    Parameters
    ----------
    timeout_seconds:
        Per-scenario wall-clock limit; ``None`` disables the limit.
        Discovery's searches check it at their loop heads
        (:mod:`repro.deadline`), so it stops a run the same way in the
        parent, in a pool worker and on a service job thread.
    retries:
        How many serial re-runs a scenario gets after its worker process
        died (the whole group is re-run in the parent, since a dead
        worker takes every in-flight scenario of its group with it).
        ``0`` turns worker deaths directly into failure records.
    on_unpicklable:
        ``"serial"`` (default) runs scenarios that fail the pickling
        probe serially in the parent, keeping the rest of the batch
        parallel; ``"fail"`` records them as failures instead.
    """

    timeout_seconds: float | None = None
    retries: int = 1
    on_unpicklable: str = "serial"

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.on_unpicklable not in ("serial", "fail"):
            raise ValueError(
                "on_unpicklable must be 'serial' or 'fail', "
                f"got {self.on_unpicklable!r}"
            )


@dataclass(frozen=True)
class ScenarioFailure:
    """Structured record of one scenario that did not produce a result.

    ``error_type`` is the exception class name (``"ScenarioTimeout"``,
    ``"WorkerCrashed"``, ``"ValidationError"``, ``"PicklingError"``, ...),
    ``traceback_summary`` the innermost frames as ``file:line in func``
    strings, and ``attempts`` how many times the scenario was tried
    (> 1 after a worker-death retry).
    """

    scenario_id: str
    error_type: str
    message: str
    traceback_summary: tuple[str, ...] = ()
    elapsed_seconds: float = 0.0
    attempts: int = 1

    def describe(self) -> str:
        frames = (
            " <- ".join(self.traceback_summary)
            if self.traceback_summary
            else "no traceback"
        )
        return (
            f"{self.scenario_id}: {self.error_type}: {self.message} "
            f"(attempt {self.attempts}, {self.elapsed_seconds:.3f}s; {frames})"
        )

    def __str__(self) -> str:
        return self.describe()


def failure_from_exception(
    scenario_id: str,
    error: BaseException,
    elapsed: float,
    attempts: int = 1,
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
        attempts=attempts,
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
    notes: list[str] = field(default_factory=list)
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


# ---------------------------------------------------------------------------
# Content identity of schema semantics (grouping key)
# ---------------------------------------------------------------------------
# Both helpers now live in ``repro.discovery.fingerprint`` (the staged
# engine keys on the same content identities); re-exported here because
# the batch module is their historical home and the service imports
# ``scenario_fingerprint`` from it.
_semantics_content_key = semantics_content_key


def _group_by_pair(
    scenarios: Sequence[tuple[int, Scenario]] | Sequence[Scenario],
) -> list[list[tuple[int, Scenario]]]:
    """Partition scenarios by schema pair, keeping original positions.

    Grouping keeps every scenario of one schema pair in one worker, so
    the worker's graph indexes, reasoner memos, and translation caches
    are shared across the pair's correspondence sets. Pairs are compared
    by content (:func:`_semantics_content_key`), not object identity.
    """
    items: list[tuple[int, Scenario]]
    if scenarios and not isinstance(scenarios[0], tuple):
        items = list(enumerate(scenarios))  # type: ignore[arg-type]
    else:
        items = list(scenarios)  # type: ignore[assignment]
    groups: dict[tuple[str, str], list[tuple[int, Scenario]]] = {}
    for position, scenario in items:
        key = (
            _semantics_content_key(scenario.source),
            _semantics_content_key(scenario.target),
        )
        groups.setdefault(key, []).append((position, scenario))
    return list(groups.values())


# ---------------------------------------------------------------------------
# Guarded execution
# ---------------------------------------------------------------------------
def _guarded_run(
    scenario: Scenario,
    timeout_seconds: float | None,
    attempts: int = 1,
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
            failure_from_exception(scenario.scenario_id, error, elapsed, attempts),
        )
    return ("ok", result)


def _run_group(
    group: list[tuple[int, Scenario]],
    timeout_seconds: float | None = None,
) -> list[tuple[int, str, str, object]]:
    """Process-pool worker: run one schema pair's scenarios serially.

    Each scenario is individually guarded, so one failure inside the
    group still lets the rest of the group produce results. Rows are
    ``(position, scenario_id, kind, payload)`` with ``kind`` in
    ``{"ok", "error"}``.
    """
    rows: list[tuple[int, str, str, object]] = []
    for position, scenario in group:
        kind, payload = _guarded_run(scenario, timeout_seconds)
        rows.append((position, scenario.scenario_id, kind, payload))
    return rows


def _pickling_error(scenario: Scenario) -> BaseException | None:
    """Probe one scenario for picklability; return the failure, if any.

    Pickling unpicklable payloads (locks, open files, bound local
    closures) raises ``TypeError`` or ``AttributeError`` at least as
    often as ``pickle.PicklingError``, so the probe catches broadly.
    """
    try:
        pickle.dumps(scenario)
    except Exception as error:
        return error
    return None


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def _aggregate_stats(
    results: Iterable[tuple[str, DiscoveryResult]],
    total: int,
    failures: Sequence[ScenarioFailure],
    retried: int = 0,
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
    stats["worker_crashes"] = sum(
        1 for f in failures if f.error_type == WorkerCrashed.__name__
    )
    stats["retried"] = retried
    stats["total_discovery_seconds"] = round(wall, 6)
    return stats


class BatchDiscovery:
    """Front-end running many scenarios with shared computation.

    >>> batch = BatchDiscovery(workers=1)  # doctest: +SKIP
    >>> batch.discover_many(scenarios)     # doctest: +SKIP
    """

    def __init__(
        self, workers: int = 1, policy: BatchPolicy | None = None
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = policy or BatchPolicy()

    def discover_many(
        self,
        scenarios: Sequence[Scenario],
        workers: int | None = None,
    ) -> BatchResult:
        scenarios = list(scenarios)
        self._check_unique_ids(scenarios)
        workers = self.workers if workers is None else workers
        notes: list[str] = []
        outcomes: list[tuple[str, object] | None] = [None] * len(scenarios)
        retried = 0
        if workers > 1 and len(scenarios) > 1:
            retried = self._run_parallel(scenarios, workers, outcomes, notes)
        else:
            for position, scenario in enumerate(scenarios):
                outcomes[position] = _guarded_run(
                    scenario, self.policy.timeout_seconds
                )
        results: list[tuple[str, DiscoveryResult]] = []
        failures: list[ScenarioFailure] = []
        for position, outcome in enumerate(outcomes):
            if outcome is None:  # pragma: no cover - defensive
                failures.append(
                    ScenarioFailure(
                        scenario_id=scenarios[position].scenario_id,
                        error_type=WorkerCrashed.__name__,
                        message="scenario produced no outcome",
                    )
                )
                continue
            kind, payload = outcome
            if kind == "ok":
                results.append(
                    (scenarios[position].scenario_id, payload)  # type: ignore[arg-type]
                )
            else:
                failures.append(payload)  # type: ignore[arg-type]
        stats = _aggregate_stats(results, len(scenarios), failures, retried)
        return BatchResult(results, stats, notes, failures)

    @staticmethod
    def _check_unique_ids(scenarios: Sequence[Scenario]) -> None:
        seen: set[str] = set()
        for scenario in scenarios:
            if scenario.scenario_id in seen:
                raise ValueError(
                    f"duplicate scenario_id {scenario.scenario_id!r}; "
                    f"ids must be unique within a batch"
                )
            seen.add(scenario.scenario_id)

    # ------------------------------------------------------------------
    # Parallel execution
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        scenarios: Sequence[Scenario],
        workers: int,
        outcomes: list[tuple[str, object] | None],
        notes: list[str],
    ) -> int:
        """Fan groups out over a process pool; fill ``outcomes`` in place.

        Returns the number of scenarios that were re-run serially after
        a worker death.
        """
        # Imported here so the serial path never loads multiprocessing.
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        policy = self.policy
        # Probe every scenario for picklability before spawning workers:
        # ProcessPoolExecutor raises lazily otherwise, poisoning the pool
        # mid-batch for a spec that was doomed from the start.
        pool_items: list[tuple[int, Scenario]] = []
        serial_items: list[tuple[int, Scenario]] = []
        for position, scenario in enumerate(scenarios):
            error = _pickling_error(scenario)
            if error is None:
                pool_items.append((position, scenario))
                continue
            if policy.on_unpicklable == "fail":
                notes.append(
                    f"scenario {scenario.scenario_id!r} is not picklable "
                    f"({type(error).__name__}); recorded as failure"
                )
                outcomes[position] = (
                    "error",
                    ScenarioFailure(
                        scenario_id=scenario.scenario_id,
                        error_type=type(error).__name__,
                        message=f"scenario spec does not pickle: {error}",
                    ),
                )
            else:
                notes.append(
                    f"scenario {scenario.scenario_id!r} is not picklable "
                    f"({type(error).__name__}); falling back to serial"
                )
                serial_items.append((position, scenario))

        retry_items: list[tuple[int, Scenario]] = []
        retried = 0
        if pool_items:
            groups = _group_by_pair(pool_items)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                future_groups = {
                    pool.submit(
                        _run_group, group, policy.timeout_seconds
                    ): group
                    for group in groups
                }
                pending = set(future_groups)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        group = future_groups[future]
                        try:
                            rows = future.result()
                        except Exception as error:
                            # A dead worker (BrokenProcessPool) fails every
                            # in-flight future; collect the groups for a
                            # bounded serial re-run instead of aborting.
                            group_ids = [s.scenario_id for _, s in group]
                            notes.append(
                                f"worker running {group_ids} died "
                                f"({type(error).__name__}: {error}); "
                                + (
                                    "retrying serially"
                                    if policy.retries > 0
                                    else "recording failures"
                                )
                            )
                            if policy.retries > 0:
                                retry_items.extend(group)
                            else:
                                for position, scenario in group:
                                    outcomes[position] = (
                                        "error",
                                        ScenarioFailure(
                                            scenario_id=scenario.scenario_id,
                                            error_type=WorkerCrashed.__name__,
                                            message=(
                                                f"worker process died: "
                                                f"{type(error).__name__}: "
                                                f"{error}"
                                            ),
                                        ),
                                    )
                            continue
                        for position, _, kind, payload in rows:
                            outcomes[position] = (kind, payload)

        for position, scenario in retry_items:
            retried += 1
            outcome = None
            for attempt in range(2, policy.retries + 2):
                outcome = _guarded_run(
                    scenario, policy.timeout_seconds, attempts=attempt
                )
                if outcome[0] == "ok":
                    break
            outcomes[position] = outcome

        for position, scenario in serial_items:
            outcomes[position] = _guarded_run(
                scenario, policy.timeout_seconds
            )
        return retried


def discover_many(
    scenarios: Sequence[Scenario],
    workers: int = 1,
    policy: BatchPolicy | None = None,
) -> BatchResult:
    """Run many discovery scenarios, sharing work; see the module doc."""
    return BatchDiscovery(workers=workers, policy=policy).discover_many(
        scenarios
    )


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
