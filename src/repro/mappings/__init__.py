"""Mapping expressions: tgds, candidates, exchange, and the lifecycle algebra."""

from repro.mappings.tgd import SourceToTargetTGD, align_queries
from repro.mappings.expression import (
    MappingCandidate,
    MappingSet,
    candidates_of,
    deduplicate_candidates,
    query_to_algebra,
    trim_redundant_joins,
)
from repro.mappings.exchange import (
    certain_rows,
    exchange,
    isomorphic_instances,
    skolem_function,
)
from repro.mappings.algebra import (
    InversionReport,
    InversionResult,
    compose,
    contains,
    equivalent,
    implies,
    invert,
    minimize_mapping_set,
)
from repro.mappings.sql import insert_sql, select_sql
from repro.mappings.serialize import (
    dump_mapping_set,
    load_mapping_set,
)
from repro.mappings.coverage import (
    ColumnCoverage,
    ColumnStatus,
    coverage_summary,
    target_coverage,
)
from repro.mappings.diff import MappingDiff, diff_candidates
from repro.mappings.verify import (
    VerificationReport,
    Violation,
    satisfies,
    tgd_violations,
    verify_mappings,
)
from repro.mappings.refinement import (
    optional_classes,
    optional_tables,
    outer_join_algebra,
)

__all__ = [
    "SourceToTargetTGD",
    "align_queries",
    "MappingCandidate",
    "MappingSet",
    "candidates_of",
    "deduplicate_candidates",
    "query_to_algebra",
    "trim_redundant_joins",
    "InversionReport",
    "InversionResult",
    "compose",
    "contains",
    "equivalent",
    "implies",
    "invert",
    "minimize_mapping_set",
    "optional_classes",
    "optional_tables",
    "outer_join_algebra",
    "insert_sql",
    "dump_mapping_set",
    "load_mapping_set",
    "ColumnCoverage",
    "ColumnStatus",
    "coverage_summary",
    "target_coverage",
    "MappingDiff",
    "diff_candidates",
    "VerificationReport",
    "Violation",
    "satisfies",
    "tgd_violations",
    "verify_mappings",
    "select_sql",
    "certain_rows",
    "exchange",
    "isomorphic_instances",
    "skolem_function",
]
