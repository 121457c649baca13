"""Evaluation harness: precision/recall measures and Table 1 / Figs 6-7."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.evaluation.measures": (
            "PrecisionRecall",
            "average",
            "intersection_size",
            "precision_recall",
        ),
        "repro.evaluation.harness": (
            "METHODS",
            "RIC",
            "SEMANTIC",
            "CaseResult",
            "DatasetResult",
            "run_all",
            "run_case",
            "run_dataset",
        ),
        "repro.evaluation.report": (
            "render_case_details",
            "render_failures",
            "render_figure6",
            "render_figure7",
            "render_table1",
        ),
    },
)
