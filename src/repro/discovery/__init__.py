"""The paper's core contribution: semantic mapping discovery."""

from repro.discovery.steiner import (
    CostModel,
    DiscoveredTree,
    direction_reversals,
    functional_tree_from_root,
    functional_trees_from_root,
    minimal_functional_trees,
    minimally_lossy_paths,
    simple_paths,
)
from repro.discovery.compatibility import (
    AnchorProfile,
    ConnectionProfile,
    anchors_compatible,
    compatibility_violation,
    connections_compatible,
    path_semantic_type,
)
from repro.discovery.options import (
    DEFAULT_OPTIONS,
    DiscoveryOptions,
)
from repro.discovery.csg import (
    CSG,
    csg_from_discovered,
    csg_from_table,
    discovered_to_semantic_tree,
    find_source_functional_csgs,
    find_source_lossy_csgs,
    find_target_csgs,
)
from repro.discovery.translate import (
    correspondence_variable,
    csg_to_cm_query,
    translate_csg,
)
from repro.discovery.ranking import CandidateScore, origin_rank
from repro.discovery.mapper import (
    DiscoveryResult,
    SemanticMapper,
    discover_mappings,
)
from repro.discovery.batch import (
    BatchDiscovery,
    BatchPolicy,
    BatchResult,
    Scenario,
    ScenarioFailure,
    discover_many,
    scenario_fingerprint,
    scenarios_for_cases,
)
from repro.discovery.engine import (
    CLIO_STAGE_NAMES,
    STAGE_NAMES,
    SemanticEngine,
    StageCache,
    clear_stage_cache,
    stage_cache,
)
from repro.discovery.fingerprint import (
    semantics_content_key,
    stage_fingerprint,
)
from repro.discovery.incremental import (
    Rediscovery,
    rediscover,
    rediscover_many,
)

__all__ = [
    "CostModel",
    "DiscoveredTree",
    "direction_reversals",
    "functional_tree_from_root",
    "functional_trees_from_root",
    "minimal_functional_trees",
    "minimally_lossy_paths",
    "simple_paths",
    "AnchorProfile",
    "ConnectionProfile",
    "anchors_compatible",
    "compatibility_violation",
    "connections_compatible",
    "path_semantic_type",
    "DEFAULT_OPTIONS",
    "DiscoveryOptions",
    "CSG",
    "csg_from_discovered",
    "csg_from_table",
    "discovered_to_semantic_tree",
    "find_source_functional_csgs",
    "find_source_lossy_csgs",
    "find_target_csgs",
    "correspondence_variable",
    "csg_to_cm_query",
    "translate_csg",
    "CandidateScore",
    "origin_rank",
    "DiscoveryResult",
    "SemanticMapper",
    "discover_mappings",
    "BatchDiscovery",
    "BatchPolicy",
    "BatchResult",
    "Scenario",
    "ScenarioFailure",
    "discover_many",
    "scenario_fingerprint",
    "scenarios_for_cases",
    "CLIO_STAGE_NAMES",
    "STAGE_NAMES",
    "SemanticEngine",
    "StageCache",
    "clear_stage_cache",
    "stage_cache",
    "semantics_content_key",
    "stage_fingerprint",
    "Rediscovery",
    "rediscover",
    "rediscover_many",
]
