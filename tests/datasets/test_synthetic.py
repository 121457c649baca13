"""Synthetic scale-family generators: sizes, determinism, coverage."""

from __future__ import annotations

import pytest

from repro.datasets import synthetic
from repro.discovery.mapper import SemanticMapper


def test_class_counts_match_formulas():
    assert synthetic.class_count(synthetic.chain_model("m", 4)) == 10
    assert (
        synthetic.class_count(synthetic.isa_fan_model("m", 3, 4))
        == 4 * 5
    )
    assert synthetic.class_count(synthetic.reified_web_model("m", 4)) == 9


def test_scale_point_respects_budget():
    for family in synthetic.FAMILY_NAMES:
        for budget in (10, 40, 120):
            actual, _ = synthetic.scale_point(family, budget)
            assert actual <= budget, (family, budget, actual)


#: ``scale_point`` class counts: the bench's synthetic points and the
#: tier-1 sizes, recorded when the count came from a separate model.
SCALE_POINT_CLASSES = {
    ("chain", 150): 150,
    ("chain", 510): 510,
    ("isa_fan", 150): 150,
    ("isa_fan", 510): 510,
    ("reified_web", 509): 509,
    ("reified_web", 999): 999,
    ("reified_web", 1499): 1499,
    **{("chain", size): size for size in (10, 12, 30, 40, 60, 120)},
    **{("isa_fan", size): size for size in (10, 30, 40, 60, 120)},
    ("isa_fan", 12): 10,
    **{("reified_web", size): size - 1 for size in (10, 12, 30, 40, 60, 120)},
}


@pytest.mark.parametrize("point", sorted(SCALE_POINT_CLASSES))
def test_scale_point_counts_the_scenario_models(point):
    actual, (source, target, _) = synthetic.scale_point(*point)
    assert actual == SCALE_POINT_CLASSES[point]
    assert actual == synthetic.class_count(source.model)
    assert actual == synthetic.class_count(target.model)


def test_generators_are_deterministic():
    for family in synthetic.FAMILY_NAMES:
        _, (source, _, correspondences) = synthetic.scale_point(family, 12)
        _, (again, _, same_correspondences) = synthetic.scale_point(
            family, 12
        )
        assert [str(v) for v in source.views()] == [
            str(v) for v in again.views()
        ]
        assert [str(c) for c in correspondences] == [
            str(c) for c in same_correspondences
        ]


@pytest.mark.parametrize("family", synthetic.FAMILY_NAMES)
def test_smallest_point_discovers_a_candidate(family):
    _, (source, target, correspondences) = synthetic.scale_point(family, 10)
    result = SemanticMapper(source, target, correspondences).discover()
    assert len(result) >= 1


@pytest.mark.parametrize("length", [2, 4, 8, 12])
def test_chain_end_to_end_join_found_at_every_length(length):
    """Marked classes at the two ends of the chain: the best candidate
    joins the first and the last table."""
    scenario = synthetic.chain_scenario(length, span=length)
    best = SemanticMapper(*scenario).discover().best()
    tables = {atom.bare_predicate for atom in best.source_query.body}
    assert {"c0", f"c{length}"} <= tables
