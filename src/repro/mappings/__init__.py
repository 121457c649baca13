"""Mapping expressions: tgds, candidates, exchange, and the lifecycle algebra.

``exchange`` executes a mapping and ``implies`` decides entailment
between mappings with the same chase round
(:func:`repro.mappings.exchange.chase_round`).
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.mappings.tgd": ("SourceToTargetTGD", "align_queries"),
        "repro.mappings.expression": (
            "MappingCandidate",
            "MappingSet",
            "candidates_of",
            "deduplicate_candidates",
            "query_to_algebra",
            "trim_redundant_joins",
        ),
        "repro.mappings.exchange": (
            "certain_rows",
            "exchange",
            "isomorphic_instances",
            "skolem_function",
        ),
        "repro.mappings.algebra": (
            "compose",
            "contains",
            "equivalent",
            "implies",
            "minimize_mapping_set",
        ),
        "repro.mappings.serialize": ("dump_mapping_set", "load_mapping_set"),
        "repro.mappings.diff": ("MappingDiff", "diff_candidates"),
        "repro.mappings.verify": (
            "VerificationReport",
            "Violation",
            "tgd_violations",
            "verify_mappings",
        ),
        "repro.mappings.refinement": ("optional_classes", "optional_tables"),
    },
)
