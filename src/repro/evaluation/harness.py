"""The experiment harness: reruns the paper's whole evaluation (Section 4).

For every dataset pair and every benchmark mapping case, both methods run
on the case's correspondences:

* the **semantic** approach (:class:`repro.discovery.SemanticMapper`) —
  schemas + CMs + table semantics;
* the **RIC-based** baseline (:class:`repro.baseline.RICBasedMapper`,
  run as the ``clio`` engine) — schemas + keys/RICs only.

The harness aggregates per-domain average precision (Figure 6), average
recall (Figure 7), and the Table 1 characteristics. Its one entry point
is ``python -m repro evaluate`` (:func:`print_evaluation`), whose output
is committed as ``docs/exhibits.txt`` and checked byte for byte by
``tests/evaluation/test_harness.py``; regenerate it with
``PYTHONPATH=src python -m repro evaluate > docs/exhibits.txt``.

Failure semantics
-----------------
By default the harness is **fail-fast**: the first case that raises (or
times out, with ``--timeout``) aborts the run with the underlying error.
With ``--keep-going`` each failing case is recorded as a structured
:class:`~repro.discovery.batch.ScenarioFailure` on its
:class:`DatasetResult` instead, the remaining cases still run, and the
process exits non-zero to reflect the partial failure. See
``docs/robustness.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.datasets.registry import (
    DatasetPair,
    MappingCase,
    dataset_names,
    load_all_datasets,
    load_dataset,
)
from repro.discovery.batch import Scenario, ScenarioFailure, discover_many
from repro.discovery.mapper import SemanticMapper
from repro.discovery.options import DiscoveryOptions
from repro.evaluation.measures import PrecisionRecall, average, precision_recall

#: Method identifiers used throughout the harness and reports.
SEMANTIC = "semantic"
RIC = "ric"
METHODS = (SEMANTIC, RIC)
#: The discovery engine each method runs on.
ENGINES = {SEMANTIC: "semantic", RIC: "clio"}


@dataclass(frozen=True)
class CaseResult:
    """Both measures for one (dataset, case, method) run."""

    dataset: str
    case_id: str
    method: str
    measures: PrecisionRecall
    elapsed_seconds: float


@dataclass
class DatasetResult:
    """All case results of one dataset pair plus its characteristics.

    ``failures`` records cases that produced no result (an exception or
    a timeout) when running with ``fail_fast=False``; their
    ids are absent from ``case_results`` for the failing method.
    """

    pair: DatasetPair
    case_results: list[CaseResult] = field(default_factory=list)
    failures: list[ScenarioFailure] = field(default_factory=list)

    def results_for(self, method: str) -> list[CaseResult]:
        return [r for r in self.case_results if r.method == method]

    def average_precision(self, method: str) -> float:
        return average(
            [r.measures.precision for r in self.results_for(method)]
        )

    def average_recall(self, method: str) -> float:
        return average([r.measures.recall for r in self.results_for(method)])

    def total_time(self, method: str) -> float:
        return sum(r.elapsed_seconds for r in self.results_for(method))

    @property
    def ok(self) -> bool:
        return not self.failures


def _options(method: str) -> DiscoveryOptions:
    if method not in ENGINES:
        raise ValueError(f"unknown method {method!r}")
    return DiscoveryOptions(engine=ENGINES[method])


def run_case(
    pair: DatasetPair, mapping_case: MappingCase, method: str
) -> CaseResult:
    """Run one method on one benchmark case and score it."""
    result = SemanticMapper(
        pair.source,
        pair.target,
        mapping_case.correspondences,
        options=_options(method),
    ).discover()
    return _score_case(pair, mapping_case, method, result)


def _score_case(
    pair: DatasetPair, mapping_case: MappingCase, method: str, result
) -> CaseResult:
    measures = precision_recall(
        result.candidates,
        mapping_case.benchmark,
        source_schema=pair.source.schema,
        target_schema=pair.target.schema,
    )
    return CaseResult(
        dataset=pair.name,
        case_id=mapping_case.case_id,
        method=method,
        measures=measures,
        elapsed_seconds=result.elapsed_seconds,
    )


def run_dataset(
    pair: DatasetPair,
    methods=METHODS,
    fail_fast: bool = True,
    timeout_seconds: float | None = None,
) -> DatasetResult:
    """Run all benchmark cases of one dataset pair with all methods.

    Each method's cases go through :func:`repro.discovery.discover_many`
    on its engine, one after another in this process, so the pair's
    graph indexes and caches are shared across its cases. To spread
    pairs over processes, use :func:`run_all` with ``workers > 1``.

    With ``fail_fast=True`` (default) the first failing case raises a
    :class:`~repro.exceptions.BatchError`; with ``fail_fast=False``
    failing cases become :class:`ScenarioFailure` records on the
    returned result and the remaining cases still run.
    ``timeout_seconds`` bounds each semantic case's wall-clock time
    (the baseline has no search loop to stop).
    """
    dataset_result = DatasetResult(pair)
    for method in methods:
        scenarios = [
            Scenario.create(
                mapping_case.case_id,
                pair.source,
                pair.target,
                mapping_case.correspondences,
                options=_options(method),
            )
            for mapping_case in pair.cases
        ]
        batch = discover_many(scenarios, timeout_seconds=timeout_seconds)
        if fail_fast:
            batch.raise_first_failure()
        results_by_id = dict(batch.results)
        for mapping_case in pair.cases:
            result = results_by_id.get(mapping_case.case_id)
            if result is not None:
                dataset_result.case_results.append(
                    _score_case(pair, mapping_case, method, result)
                )
        dataset_result.failures.extend(
            replace(
                failure,
                scenario_id=f"{pair.name}/{failure.scenario_id}[{method}]",
            )
            for failure in batch.failures
        )
    return dataset_result


def _run_dataset_by_name(
    name: str,
    methods=METHODS,
    fail_fast: bool = True,
    timeout_seconds: float | None = None,
) -> DatasetResult:
    """Top-level (picklable) worker: load one pair by name and run it."""
    return run_dataset(
        load_dataset(name),
        methods,
        fail_fast=fail_fast,
        timeout_seconds=timeout_seconds,
    )


def run_all(
    methods=METHODS,
    workers: int = 1,
    fail_fast: bool = True,
    timeout_seconds: float | None = None,
) -> list[DatasetResult]:
    """The full evaluation over every registered dataset pair.

    With ``workers > 1`` dataset pairs fan out over a process pool (each
    worker loads its pair from the registry by name, so only results
    cross the process boundary); each pair's cases then share caches
    serially inside their worker.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        # Imported here so the serial path never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        names = dataset_names()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(
                pool.map(
                    _run_dataset_by_name,
                    names,
                    [methods] * len(names),
                    [fail_fast] * len(names),
                    [timeout_seconds] * len(names),
                )
            )
    return [
        run_dataset(
            pair,
            methods,
            fail_fast=fail_fast,
            timeout_seconds=timeout_seconds,
        )
        for pair in load_all_datasets()
    ]


def print_evaluation(
    *,
    workers: int = 1,
    fail_fast: bool = True,
    timeout_seconds: float | None = None,
    details: bool = False,
) -> int:
    """Rerun the evaluation and print Table 1, Figure 6, and Figure 7.

    The body of ``repro evaluate``. Returns 0 on a clean run and 1 when
    a ``fail_fast=False`` run recorded any per-case failures.
    """
    from repro.evaluation.report import (
        render_failures,
        render_figure6,
        render_figure7,
        render_table1,
        render_case_details,
    )

    results = run_all(
        workers=workers,
        fail_fast=fail_fast,
        timeout_seconds=timeout_seconds,
    )
    print(render_table1(results))
    print()
    print(render_figure6(results))
    print()
    print(render_figure7(results))
    if details:
        print()
        print(render_case_details(results))
    failed = sum(len(r.failures) for r in results)
    if failed:
        print()
        print(render_failures(results))
        return 1
    return 0
