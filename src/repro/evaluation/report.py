"""Textual rendering of the paper's Table 1 and Figures 6–7.

The figures are bar charts in the paper; here they render as aligned
text tables plus ASCII bars so the "who wins, by how much" shape is
visible directly in terminal output. ``repro evaluate`` prints the three
exhibits; its output is committed as ``docs/exhibits.txt`` and
``tests/evaluation/test_harness.py`` compares a rerun byte for byte. The
exhibits carry no timing, since one run's seconds would make every rerun
differ (``--details`` prints per-case times).
"""

from __future__ import annotations

from typing import Sequence

from repro.evaluation.harness import RIC, SEMANTIC, DatasetResult

_BAR_WIDTH = 24


def _bar(value: float) -> str:
    filled = round(value * _BAR_WIDTH)
    return "█" * filled + "·" * (_BAR_WIDTH - filled)


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(
        str(cell).ljust(width) for cell, width in zip(cells, widths)
    ).rstrip()


def render_table1(results: Sequence[DatasetResult]) -> str:
    """Table 1: characteristics of the (reconstructed) test data."""
    header = [
        "Schema",
        "#tables",
        "associated CM",
        "#nodes in CM",
        "#mappings",
    ]
    rows: list[list[str]] = []
    for result in results:
        pair = result.pair
        rows.append(
            [
                pair.source_label,
                str(pair.source_table_count()),
                pair.source_cm_label,
                str(pair.source_cm_node_count()),
                str(pair.mapping_count()),
            ]
        )
        rows.append(
            [
                pair.target_label,
                str(pair.target_table_count()),
                pair.target_cm_label,
                str(pair.target_cm_node_count()),
                "",
            ]
        )
    widths = [
        max([len(header[i])] + [len(row[i]) for row in rows])
        for i in range(len(header))
    ]
    lines = ["Table 1. Characteristics of Test Data"]
    lines.append(_format_row(header, widths))
    # The rule spans every column with the two-space gap after it.
    lines.append("-" * sum(width + 2 for width in widths))
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def _render_measure_figure(
    results: Sequence[DatasetResult], title: str, getter: str
) -> str:
    lines = [title]
    name_width = max(len(r.pair.name) for r in results) if results else 6
    for result in results:
        semantic_value = getattr(result, getter)(SEMANTIC)
        ric_value = getattr(result, getter)(RIC)
        lines.append(
            f"  {result.pair.name.ljust(name_width)}  "
            f"semantic {_bar(semantic_value)} {semantic_value:4.2f}   "
            f"RIC-based {_bar(ric_value)} {ric_value:4.2f}"
        )
    semantic_avg = (
        sum(getattr(r, getter)(SEMANTIC) for r in results) / len(results)
        if results
        else 0.0
    )
    ric_avg = (
        sum(getattr(r, getter)(RIC) for r in results) / len(results)
        if results
        else 0.0
    )
    lines.append(
        f"  {'OVERALL'.ljust(name_width)}  "
        f"semantic {_bar(semantic_avg)} {semantic_avg:4.2f}   "
        f"RIC-based {_bar(ric_avg)} {ric_avg:4.2f}"
    )
    return "\n".join(lines)


def render_figure6(results: Sequence[DatasetResult]) -> str:
    """Figure 6: average precision per domain, semantic vs RIC-based."""
    return _render_measure_figure(
        results, "Figure 6. Average Precision", "average_precision"
    )


def render_figure7(results: Sequence[DatasetResult]) -> str:
    """Figure 7: average recall per domain, semantic vs RIC-based."""
    return _render_measure_figure(
        results, "Figure 7. Average Recall", "average_recall"
    )


def render_case_details(results: Sequence[DatasetResult]) -> str:
    """Per-case measures, for debugging and EXPERIMENTS.md."""
    lines = ["Per-case results:"]
    for result in results:
        lines.append(f"  {result.pair.name}:")
        for case_result in result.case_results:
            lines.append(
                f"    {case_result.case_id:<28} {case_result.method:<9} "
                f"{case_result.measures}  "
                f"[{case_result.elapsed_seconds * 1000:.1f} ms]"
            )
        for failure in result.failures:
            lines.append(f"    {failure.scenario_id:<28} FAILED "
                         f"({failure.error_type})")
    return "\n".join(lines)


def render_failures(results: Sequence[DatasetResult]) -> str:
    """Structured failure records collected under ``--keep-going``."""
    failed = sum(len(result.failures) for result in results)
    if not failed:
        return "Failures: none"
    lines = [f"Failures ({failed} case(s) produced no result):"]
    for result in results:
        for failure in result.failures:
            lines.append(f"  {failure.describe()}")
    return "\n".join(lines)
