"""The streamed semantics fingerprint equals the one-string reference.

``semantics_content_key`` feeds SHA-256 the ``repr`` of the semantics'
spec tuple piece by piece. Service mapping documents and on-disk cache
keys carry the digest, so it must stay the digest of the whole ``repr``
string that the reference below builds in one piece.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cm import ConceptualModel
from repro.cm.serialize import model_to_dict
from repro.datasets import synthetic
from repro.datasets.registry import load_all_datasets
from repro.discovery.fingerprint import semantics_content_key
from repro.semantics import design_schema

#: The synthetic points of the tier-1 golden test.
SYNTHETIC_POINTS = [
    (family, classes)
    for family in ("chain", "isa_fan", "reified_web")
    for classes in (10, 30, 60)
]


def _reference_key(semantics) -> str:
    schema = semantics.schema
    spec = repr(
        (
            schema.name,
            tuple(
                (table.name, table.columns, table.primary_key)
                for table in schema
            ),
            tuple(str(ric) for ric in schema.rics),
            model_to_dict(semantics.model),
            tuple(
                (name, semantics.tree(name).describe())
                for name in semantics.tables_with_semantics()
            ),
        )
    )
    return hashlib.sha256(spec.encode("utf-8")).hexdigest()


def _streamed_key(semantics) -> str:
    """The key computed now, not the one cached on the object."""
    semantics.__dict__.pop("_content_key", None)
    return semantics_content_key(semantics)


def _paper_semantics():
    seen = {}
    cases = 0
    for pair in load_all_datasets():
        for _ in pair.cases:
            cases += 1
            for semantics in (pair.source, pair.target):
                seen[id(semantics)] = semantics
    assert cases == 34
    return list(seen.values())


def test_streamed_key_matches_reference_on_the_paper_cases():
    semantics = _paper_semantics()
    assert len(semantics) >= 2
    for item in semantics:
        assert _streamed_key(item) == _reference_key(item), item.schema.name


@pytest.mark.parametrize("family, classes", SYNTHETIC_POINTS)
def test_streamed_key_matches_reference_on_synthetic_points(family, classes):
    _, (source, target, _) = synthetic.scale_point(family, classes)
    for semantics in (source, target):
        assert _streamed_key(semantics) == _reference_key(semantics)


def test_one_item_and_empty_sequences_keep_their_repr():
    """``(x,)`` and ``()`` are where a hand-fed tuple ``repr`` goes wrong:
    one table and no RICs."""
    model = ConceptualModel("solo")
    model.add_class("A", attributes=["a"], key=["a"])
    semantics = design_schema(model, "solo").semantics
    assert len(semantics.schema.rics) == 0
    assert len(list(semantics.schema)) == 1
    assert _streamed_key(semantics) == _reference_key(semantics)


def test_key_is_cached_and_content_addressed():
    first = synthetic.scale_point("reified_web", 30)[1][0]
    again = synthetic.scale_point("reified_web", 30)[1][0]
    key = semantics_content_key(first)
    assert semantics_content_key(first) == key
    assert semantics_content_key(again) == key
    assert key != semantics_content_key(
        synthetic.scale_point("reified_web", 60)[1][0]
    )

