"""The paper's core contribution: semantic mapping discovery."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.discovery.steiner": (
            "CostModel",
            "DiscoveredTree",
            "direction_reversals",
            "functional_trees_from_root",
            "minimal_functional_trees",
            "minimally_lossy_paths",
            "simple_paths",
        ),
        "repro.discovery.compatibility": (
            "AnchorProfile",
            "ConnectionProfile",
            "anchors_compatible",
            "compatibility_violation",
            "path_semantic_type",
        ),
        "repro.discovery.options": ("DEFAULT_OPTIONS", "DiscoveryOptions"),
        "repro.discovery.csg": (
            "CSG",
            "csg_from_discovered",
            "csg_from_table",
            "discovered_to_semantic_tree",
            "find_source_functional_csgs",
            "find_target_csgs",
        ),
        "repro.discovery.translate": (
            "correspondence_variable",
            "csg_to_cm_query",
            "translate_csg",
        ),
        "repro.discovery.ranking": ("CandidateScore", "origin_rank"),
        "repro.discovery.mapper": (
            "DiscoveryResult",
            "SemanticMapper",
            "discover_mappings",
        ),
        "repro.discovery.batch": (
            "BatchDiscovery",
            "BatchPolicy",
            "BatchResult",
            "Scenario",
            "ScenarioFailure",
            "discover_many",
            "scenarios_for_cases",
        ),
        "repro.discovery.fingerprint": (
            "scenario_fingerprint",
            "semantics_content_key",
            "stage_fingerprint",
        ),
        "repro.discovery.engine.stages": (
            "CLIO_STAGE_NAMES",
            "STAGE_NAMES",
            "SemanticEngine",
        ),
        "repro.discovery.engine.cache": (
            "StageCache",
            "clear_stage_cache",
            "stage_cache",
        ),
        "repro.discovery.incremental": (
            "Rediscovery",
            "rediscover",
            "rediscover_many",
        ),
    },
)
