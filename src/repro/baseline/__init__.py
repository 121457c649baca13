"""The RIC-based baseline technique (Clio-style)."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.baseline.logical_relations": (
            "LogicalRelation",
            "compute_logical_relations",
        ),
        "repro.baseline.clio": (
            "RICBasedMapper",
            "discover_ric_mappings",
            "trim_unnecessary_joins",
        ),
    },
)
