"""Snapshot of the top-level public API, and the lazy-export contract.

``repro.__all__`` is a compatibility contract: names may be added, but a
missing or broken name is an API break this test catches before users
do. The snapshot below is the intended surface — update it deliberately,
in the same change that updates ``docs/api.md``.

Every package resolves its re-exported names on first use; the contract
tests below hold each package to what an eager ``from … import`` gave:
the same objects, ``dir`` and ``import *``, and the usual error for an
unknown name.
"""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

EXPECTED_ALL = {
    "__version__",
    "ReproError",
    # Conceptual models
    "Cardinality",
    "CMGraph",
    "CMReasoner",
    "ConceptualModel",
    "ConnectionCategory",
    "SemanticType",
    "model_from_dict",
    "model_to_dict",
    # Relational
    "Column",
    "Instance",
    "ReferentialConstraint",
    "RelationalSchema",
    "Table",
    # Semantics
    "SchemaSemantics",
    "SemanticTree",
    "design_schema",
    "recover_semantics",
    # Correspondences
    "Correspondence",
    "CorrespondenceSet",
    "suggest_correspondences",
    "as_correspondence_set",
    # Discovery
    "BatchResult",
    "DiscoveryOptions",
    "DiscoveryResult",
    "Rediscovery",
    "STAGE_NAMES",
    "Scenario",
    "SemanticMapper",
    "Tracer",
    "discover",
    "discover_many",
    "discover_mappings",
    "rediscover",
    "rediscover_many",
    # Baseline
    "RICBasedMapper",
    "discover_ric_mappings",
    # Mappings
    "MappingCandidate",
    "MappingSet",
    "SourceToTargetTGD",
    "exchange",
    "query_to_algebra",
    # Lifecycle algebra
    "compose",
    "contains",
    "equivalent",
    "implies",
}


def test_all_matches_snapshot():
    assert set(repro.__all__) == EXPECTED_ALL


def test_every_name_importable():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


class TestDiscoverFacade:
    @pytest.fixture(scope="class")
    def example(self):
        from repro.datasets.paper_examples import partof_example

        return partof_example(target_is_partof=True)

    @pytest.fixture(scope="class")
    def scenario(self, example):
        return repro.Scenario.create(
            "facade",
            example.source,
            example.target,
            example.correspondences,
        )

    def test_runs_scenario(self, scenario):
        result = repro.discover(scenario)
        assert result.candidates
        assert result.trace is None

    def test_options_override(self, scenario):
        result = repro.discover(
            scenario, options=repro.DiscoveryOptions(explain=True)
        )
        assert result.trace is not None
        assert result.trace["prunes"]

    def test_caller_owned_tracer(self, scenario):
        tracer = repro.Tracer(explain=True)
        result = repro.discover(scenario, trace=tracer)
        assert tracer.span_count > 0
        assert result.trace is not None


#: ``(module, class or None, name)`` of every name removed from the API
#: (see the "Removed" table of docs/api.md).
REMOVED = (
    ("repro.trace", None, "NoopTracer"),
    ("repro.trace", None, "NOOP"),
    ("repro.trace", None, "activate"),
    ("repro.trace", None, "active"),
    ("repro.trace", None, "current"),
    ("repro.trace", None, "span"),
    ("repro.trace", None, "prune"),
    ("repro.trace", None, "phase_seconds"),
    ("repro.trace", "Tracer", "enabled"),
    ("repro.perf", None, "phase"),
    ("repro.perf", None, "record_time"),
    ("repro.perf", "PerfCounters", "add_time"),
    ("repro.perf", "PerfCounters", "timings"),
    ("repro.discovery", None, "find_source_lossy_csgs"),
    ("repro.discovery.compatibility", None, "tree_pair_compatible"),
    ("repro.service.metrics", "ServiceMetrics", "phase_quantile"),
    ("repro.exceptions", None, "TimeoutUnavailableWarning"),
    ("repro.exceptions", None, "ReproWarning"),
    ("repro.mappings", None, "target_coverage"),
    ("repro.mappings", None, "coverage_summary"),
    ("repro.mappings", None, "ColumnCoverage"),
    ("repro.mappings", None, "ColumnStatus"),
    ("repro.cm", None, "reify_relationship"),
    ("repro.cm", None, "auto_reify_many_many"),
    ("repro.cm", None, "ReificationMap"),
    ("repro.cm", None, "ReifiedBinary"),
    ("repro.relational", None, "parse_ddl"),
    ("repro.relational.ddl", None, "parse_ddl"),
    ("repro.mappings", None, "outer_join_algebra"),
    ("repro.mappings.refinement", None, "outer_join_algebra"),
    ("repro.relational", None, "ThetaJoin"),
    ("repro.relational", None, "LeftOuterJoin"),
    ("repro.relational", None, "FullOuterJoin"),
    ("repro.relational", None, "Union"),
    ("repro.relational", None, "Distinct"),
    ("repro.cm", None, "stree_to_dot"),
    ("repro.cm.dot", None, "stree_to_dot"),
    ("repro.discovery", None, "connections_compatible"),
    ("repro.discovery", None, "functional_tree_from_root"),
    ("repro.correspondences", "CorrespondenceSet", "target_columns"),
    ("repro.discovery.steiner", "DiscoveredTree", "edge_keys"),
    ("repro.cm.graph", "CMGraph", "degree"),
    ("repro.queries.chase", "ChaseEngine", "chase_closure_size"),
    ("repro.queries.conjunctive", None, "fresh_variables"),
    ("repro.relational.algebra", "AlgebraExpression", "select_columns"),
    ("repro.semantics.lav", "SchemaSemantics", "column_tree_node"),
    ("repro.validation", None, "validate_scenarios"),
    ("repro.discovery.engine", None, "time_stat_key"),
    ("repro.mappings", None, "satisfies"),
    ("repro.mappings.verify", None, "satisfies"),
    ("repro.perf.counters", "PerfCounters", "merge"),
    ("repro.service.cache", "ResultCache", "clear"),
    ("repro.perf", None, "bench"),
    ("repro.perf", None, "invariants"),
    ("repro.discovery.engine", None, "LiftedCorrespondences"),
    ("repro.discovery.engine", None, "TargetCSGSet"),
    ("repro.discovery.engine", None, "SourceCSGSet"),
    ("repro.discovery.engine", None, "CompatiblePairs"),
    ("repro.discovery.engine", None, "TranslatedCandidates"),
    ("repro.discovery.engine", None, "PairRecord"),
    ("repro.discovery.compatibility", None, "PROFILE_CACHE_SIZE"),
    ("repro.discovery.compatibility", None, "clear_profile_cache"),
    ("repro.cm", "CMReasoner", "shared"),
    ("repro.perf", "GraphIndex", "shortest_paths"),
    ("repro.service", None, "pool"),
    ("repro.service", None, "PreForkSupervisor"),
    ("repro.service.metrics", None, "label_series"),
    ("repro.service.metrics", None, "write_snapshot_file"),
    ("repro.service.metrics", None, "read_snapshot_series"),
    ("repro.service.server", "ServiceConfig", "worker_index"),
    ("repro.service.server", "ServiceConfig", "pool_size"),
    ("repro.service.server", "ServiceConfig", "metrics_dir"),
    ("repro.perf", None, "global_counters"),
    ("repro.perf", None, "reset"),
    ("repro.perf.counters", "PerfCounters", "add"),
    ("repro.perf.counters", "PerfCounters", "clear"),
    ("repro.service.metrics", "ServiceMetrics", "snapshot"),
    ("repro.perf", "GraphIndex", "reverse_edges"),
    ("repro.validation", None, "validate_pair"),
    ("repro.validation", None, "validate_semantics"),
    ("repro.validation", None, "validate_schema"),
    ("repro.ingest", None, "IngestDiagnostic"),
    ("repro.ingest.introspect", None, "IngestDiagnostic"),
    ("repro", None, "invert"),
    ("repro", None, "InversionResult"),
    ("repro.mappings", None, "invert"),
    ("repro.mappings", None, "InversionResult"),
    ("repro.mappings", None, "InversionReport"),
    ("repro.mappings.algebra", None, "invert"),
    ("repro.mappings.algebra", None, "InversionResult"),
    ("repro.mappings.algebra", None, "InversionReport"),
    ("repro.mappings", None, "sql"),
    ("repro.mappings", None, "insert_sql"),
    ("repro.mappings", None, "select_sql"),
    ("repro.queries", None, "evaluate_bindings"),
    ("repro.queries.datalog", None, "evaluate_bindings"),
    ("repro.exceptions", None, "EvaluationError"),
    ("repro.cm.model", "ConceptualModel", "has_relationship"),
    ("repro.evaluation.harness", None, "main"),
    ("repro.evaluation.harness", "DatasetResult", "total_time"),
)


@pytest.mark.parametrize("module, owner, name", REMOVED)
def test_removed_names_stay_removed(module, owner, name):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    assert not hasattr(target, name)
    if owner is None and hasattr(target, "__path__"):
        # Nor can it be imported as a submodule of the package.
        assert importlib.util.find_spec(f"{module}.{name}") is None


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


class TestLazyExports:
    def test_every_package_declares_all(self, package):
        assert package.__all__
        assert len(package.__all__) == len(set(package.__all__))

    def test_names_are_the_defining_modules_objects(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            if name in package._exports:
                module, attr = package._exports[name]
                owner = importlib.import_module(module)
                assert value is getattr(owner, attr), name
            else:
                assert value is vars(package)[name], name

    def test_dir_lists_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_name(self, package):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_name_is_an_attribute_error(self, package):
        message = f"module '{package.__name__}' has no attribute 'nope'"
        with pytest.raises(AttributeError, match=message):
            package.nope
        assert not hasattr(package, "nope")
        with pytest.raises(ImportError):
            exec(f"from {package.__name__} import nope", {})


EXCHANGE_PROBE = """
import types
{first}
import repro, repro.mappings, repro.mappings.exchange
for value in (repro.exchange, repro.mappings.exchange):
    assert callable(value), value
    assert not isinstance(value, types.ModuleType), value
"""


@pytest.mark.parametrize(
    "first",
    [
        "import repro.mappings.exchange",
        "from repro.mappings.exchange import certain_rows",
        "from repro.mappings import exchange",
        "from repro import exchange",
    ],
)
def test_exchange_stays_the_function_in_every_import_order(first):
    """``exchange`` names both a function and the submodule defining it.

    Importing a submodule binds it on its package; the package must
    still answer with the function, whichever import came first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", EXCHANGE_PROBE.format(first=first)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
