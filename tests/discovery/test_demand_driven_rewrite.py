"""Demand-driven rewrite plans: the eager rewritings from fewer views.

Discovery rewrites each CSG's CM query over its ``SchemaSemantics``,
whose rewrite plan builds LAV views and inverse rules only for the
predicates a query mentions. ``rewrite_query`` over the full view
sequence is the eager reference: every rewrite discovery makes must
return exactly its list. The same cold runs pin ``rewrite_limit_hits``.
"""

import gc
import weakref
from collections import Counter

import pytest

import repro.perf as perf
from repro.datasets import synthetic
from repro.datasets.paper_examples import bookstore_example
from repro.datasets.registry import load_all_datasets
from repro.discovery import find_target_csgs, translate, translate_csg
from repro.discovery.mapper import SemanticMapper
from repro.queries import rewrite
from repro.queries.normalize import KeyPositions
from repro.queries.rewrite import rewrite_query
from repro.semantics.lav import SchemaSemantics

SYNTHETIC_CLASSES = (10, 30, 60)

#: Dataset cases whose cold run has rewrites stopped by the limit, with
#: the number of such rewrites. Candidates dropped for missing a
#: required table count toward the limit, so these enumerations stop
#: although far fewer than 256 candidates reach the key chase.
TRUNCATED_DATASET_CASES = {
    "Amalgam/amalgam-author-institution": 2,
    "Amalgam/amalgam-author-journal": 1,
    "Amalgam/amalgam-author-publisher": 1,
    "DBLP/dblp-author-at-conference": 1,
}


def _shape(queries):
    return [(query.name, query.head_terms, query.body) for query in queries]


def _discover_recording(scenarios):
    """Cold-discover each labelled scenario, recording every rewrite.

    Returns ``(calls, stats)``: one ``(query, source, required, limit,
    result)`` per ``rewrite_query`` call that translation made, and each
    run's ``DiscoveryResult.stats`` by label.
    """
    calls = []
    stats = {}

    def recording(
        query, views, required_tables=(), limit=256, key_positions=None
    ):
        result = rewrite_query(
            query, views, required_tables, limit, key_positions
        )
        calls.append((query, views, frozenset(required_tables), limit, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translate, "rewrite_query", recording)
        for label, (source, target, correspondences) in scenarios:
            perf.clear_caches()
            result = SemanticMapper(source, target, correspondences).discover()
            stats[label] = result.stats
    return calls, stats


@pytest.fixture(scope="module")
def dataset_runs():
    scenarios = [
        (
            f"{pair.name}/{case.case_id}",
            (pair.source, pair.target, case.correspondences),
        )
        for pair in load_all_datasets()
        for case in pair.cases
    ]
    assert len(scenarios) == 34
    return _discover_recording(scenarios)


@pytest.fixture(scope="module")
def synthetic_runs():
    scenarios = [
        ((family, classes), synthetic.scale_point(family, classes)[1])
        for family in synthetic.FAMILY_NAMES
        for classes in SYNTHETIC_CLASSES
    ]
    return _discover_recording(scenarios)


@pytest.mark.parametrize("runs", ["dataset_runs", "synthetic_runs"])
def test_demand_driven_rewrites_equal_eager(runs, request):
    calls, _ = request.getfixturevalue(runs)
    assert calls
    for query, semantics, required, limit, result in calls:
        assert isinstance(semantics, SchemaSemantics)
        eager = rewrite_query(
            query,
            semantics.views(),
            required,
            limit,
            KeyPositions(semantics.schema),
        )
        assert _shape(result) == _shape(eager), str(query)


def test_dataset_rewrite_limit_hits(dataset_runs):
    _, stats = dataset_runs
    hits = {
        label: run["rewrite_limit_hits"]
        for label, run in stats.items()
        if run.get("rewrite_limit_hits")
    }
    assert hits == TRUNCATED_DATASET_CASES


@pytest.mark.parametrize(
    "point, hits",
    [(("chain", 30), 0), (("isa_fan", 30), 2), (("reified_web", 60), 0)],
)
def test_rewrite_limit_hits_are_counted(synthetic_runs, point, hits):
    _, stats = synthetic_runs
    assert stats[point].get("rewrite_limit_hits", 0) == hits


@pytest.mark.parametrize(
    "family, classes, hits",
    [("chain", 150, 0), ("chain", 510, 0), ("isa_fan", 150, 2)],
)
def test_rewrite_limit_hits_count_only_truncations(family, classes, hits):
    """A chain's enumerations end exactly at the limit with no rule
    choice left untried, so they are whole; isa_fan's are cut short."""
    _, (source, target, correspondences) = synthetic.scale_point(
        family, classes
    )
    perf.clear_caches()
    result = SemanticMapper(source, target, correspondences).discover()
    assert result.stats.get("rewrite_limit_hits", 0) == hits


def test_discovery_builds_only_the_views_it_needs(monkeypatch):
    _, (source, target, correspondences) = synthetic.scale_point(
        "reified_web", 509
    )
    built = Counter()
    build_view = SchemaSemantics._build_view

    def counting(self, table_name):
        built[self.schema.name] += 1
        return build_view(self, table_name)

    monkeypatch.setattr(SchemaSemantics, "_build_view", counting)
    perf.clear_caches()
    result = SemanticMapper(source, target, correspondences).discover()
    assert len(result) >= 1
    for side in (source, target):
        assert len(side.tables_with_semantics()) > 400
        assert 1 <= built[side.schema.name] <= 10, dict(built)


def test_rewrite_plan_dies_with_its_semantics():
    scenario = bookstore_example()
    items = scenario.correspondences.lift(scenario.source, scenario.target)
    csg = find_target_csgs(scenario.target, items)[0]
    perf.clear_caches()
    assert translate_csg(csg, items, "target", scenario.target)
    assert scenario.target in rewrite._PLANS
    target = weakref.ref(scenario.target)
    del scenario, items, csg
    gc.collect()
    assert target() is None
