"""Integration tests: the harness reproduces the paper's result shapes.

These run both methods over the reconstructed datasets, so they are the
slowest tests in the suite — but they ARE the reproduction: semantic
recall 1.0 everywhere, semantic precision ≥ RIC everywhere, and
``repro evaluate`` printing the committed ``docs/exhibits.txt``.
"""

import pathlib
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.datasets.registry import dataset_names, load_dataset
from repro.exceptions import BatchError
from repro.evaluation import (
    RIC,
    SEMANTIC,
    render_case_details,
    render_figure6,
    render_figure7,
    render_table1,
    run_all,
    run_case,
    run_dataset,
)


EXHIBITS = pathlib.Path(__file__).parents[2] / "docs" / "exhibits.txt"


@pytest.fixture(scope="module")
def all_results():
    return {name: run_dataset(load_dataset(name)) for name in dataset_names()}


def test_evaluate_prints_the_committed_exhibits(capsys):
    """Table 1 and Figures 6-7, byte for byte. A change that moves an
    exhibit regenerates the file in the same commit:
    ``PYTHONPATH=src python -m repro evaluate > docs/exhibits.txt``."""
    assert main(["evaluate"]) == 0
    assert capsys.readouterr().out == EXHIBITS.read_text(encoding="utf-8")


class TestPaperShapes:
    def test_semantic_recall_is_perfect_everywhere(self, all_results):
        """Figure 7's headline: the semantic approach 'did not miss any
        correct mappings' — average recall 1.0 on every domain."""
        for name, result in all_results.items():
            assert result.average_recall(SEMANTIC) == 1.0, name

    def test_semantic_recall_dominates_ric(self, all_results):
        for name, result in all_results.items():
            assert result.average_recall(SEMANTIC) >= result.average_recall(
                RIC
            ), name

    def test_semantic_precision_dominates_ric(self, all_results):
        """Figure 6's headline: significantly improved precision."""
        for name, result in all_results.items():
            assert (
                result.average_precision(SEMANTIC)
                > result.average_precision(RIC)
            ), name

    def test_ric_misses_composition_cases(self, all_results):
        """The RIC technique must fail somewhere (the paper's motivation),
        but not everywhere (it is a credible baseline)."""
        recalls = [r.average_recall(RIC) for r in all_results.values()]
        assert any(recall < 1.0 for recall in recalls)
        assert all(recall > 0.0 for recall in recalls)

    def test_generation_time_insignificant(self, all_results):
        """Per-domain semantic generation stays in interactive range."""
        for name, result in all_results.items():
            assert result.total_time(SEMANTIC) < 30.0, name


class TestHarnessMechanics:
    def test_run_case_semantic_and_ric(self):
        pair = load_dataset("Hotel")
        semantic = run_case(pair, pair.cases[0], SEMANTIC)
        ric = run_case(pair, pair.cases[0], RIC)
        assert semantic.method == SEMANTIC
        assert ric.method == RIC
        assert semantic.measures.recall == 1.0

    def test_unknown_method_rejected(self):
        pair = load_dataset("Hotel")
        with pytest.raises(ValueError):
            run_case(pair, pair.cases[0], "magic")

    def test_dataset_result_accessors(self, all_results):
        hotel = all_results["Hotel"]
        assert len(hotel.results_for(SEMANTIC)) == 5
        assert len(hotel.results_for(RIC)) == 5
        assert hotel.total_time(SEMANTIC) > 0


class TestReports:
    def test_table1_mentions_all_schemas(self, all_results):
        text = render_table1(list(all_results.values()))
        for label in ["DBLP1", "Mondial2", "UTCS", "HotelB", "NetworkA"]:
            assert label in text

    def test_figures_render_bars(self, all_results):
        results = list(all_results.values())
        fig6 = render_figure6(results)
        fig7 = render_figure7(results)
        assert "Average Precision" in fig6
        assert "Average Recall" in fig7
        assert "█" in fig6 and "OVERALL" in fig6

    def test_case_details(self, all_results):
        text = render_case_details(list(all_results.values()))
        assert "hotel-guest-rate" in text


class TestFailureHandling:
    """--fail-fast / --keep-going semantics of the harness."""

    @pytest.fixture
    def broken_ric(self, monkeypatch):
        from repro.baseline import clio
        from repro.perf import clear_caches

        def _boom(self):
            raise RuntimeError("baseline exploded")

        # The baseline runs as a cached engine stage: drop earlier
        # results so every case reaches the patched mapper.
        clear_caches()
        monkeypatch.setattr(clio.RICBasedMapper, "discover", _boom)

    def test_fail_fast_propagates(self, broken_ric):
        pair = load_dataset("Hotel")
        with pytest.raises(BatchError, match="baseline exploded"):
            run_dataset(pair, fail_fast=True)

    def test_keep_going_records_structured_failures(self, broken_ric):
        pair = load_dataset("Hotel")
        result = run_dataset(pair, fail_fast=False)
        assert not result.ok
        assert len(result.failures) == len(pair.cases)
        for failure in result.failures:
            assert failure.error_type == "RuntimeError"
            assert "[ric]" in failure.scenario_id
        # The semantic method still scored every case.
        assert len(result.results_for(SEMANTIC)) == len(pair.cases)
        assert result.average_recall(SEMANTIC) == 1.0

    def test_failures_render_in_reports(self, broken_ric):
        from repro.evaluation import render_failures

        pair = load_dataset("Hotel")
        result = run_dataset(pair, fail_fast=False)
        text = render_failures([result])
        assert "produced no result" in text
        assert "RuntimeError" in text
        details = render_case_details([result])
        assert "FAILED" in details

    def test_clean_run_reports_no_failures(self):
        from repro.evaluation import render_failures

        pair = load_dataset("UT")
        result = run_dataset(pair)
        assert result.ok
        assert render_failures([result]) == "Failures: none"


class TestWorkers:
    """``repro evaluate --workers N`` fans dataset pairs out over
    processes; the results must not depend on it."""

    @staticmethod
    def _untimed(results):
        return [
            (
                result.pair.name,
                [
                    replace(case, elapsed_seconds=0.0)
                    for case in result.case_results
                ],
                [replace(f, elapsed_seconds=0.0) for f in result.failures],
            )
            for result in results
        ]

    def test_two_workers_equal_a_serial_run(self):
        serial = run_all()
        parallel = run_all(workers=2)
        assert [r.pair.name for r in parallel] == list(dataset_names())
        assert self._untimed(parallel) == self._untimed(serial)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_all(workers=0)
