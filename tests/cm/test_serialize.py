"""Unit tests for model (de)serialization."""

import pytest

from repro.exceptions import ConceptualModelError
from repro.cm import SemanticType, model_from_dict, model_to_dict


SPEC = {
    "name": "books",
    "classes": {
        "Person": {"attributes": ["pname"], "key": ["pname"]},
        "Book": {"attributes": ["bid"], "key": ["bid"]},
        "Author": {},
    },
    "relationships": [
        {
            "name": "writes",
            "from": "Person",
            "to": "Book",
            "to_card": "0..*",
            "from_card": "1..*",
        },
        {
            "name": "chapterOf",
            "from": "Book",
            "to": "Book",
            "to_card": "0..1",
            "semantic_type": "partOf",
        },
    ],
    "reified": [
        {
            "name": "Sell",
            "roles": {"seller": "Person", "sold": "Book"},
            "attributes": ["date"],
            "role_cards": {"seller": "0..*", "sold": "0..1"},
        }
    ],
    "isa": [["Author", "Person"]],
    "disjoint": [["Author", "Book"]],
    "covers": [],
}


class TestFromDict:
    def test_builds_everything(self):
        cm = model_from_dict(SPEC)
        assert cm.name == "books"
        assert cm.cm_class("Person").key == ("pname",)
        assert cm.relationship("writes").from_card.is_total
        assert cm.relationship("chapterOf").semantic_type is SemanticType.PART_OF
        assert cm.is_reified("Sell")
        assert cm.relationship("sold").from_card.is_functional
        assert ("Author", "Person") in cm.isa_links
        assert cm.disjointness_groups == (frozenset({"Author", "Book"}),)

    def test_name_required(self):
        with pytest.raises(ConceptualModelError):
            model_from_dict({})

    def test_default_cards(self):
        cm = model_from_dict(
            {
                "name": "m",
                "classes": {"A": {}, "B": {}},
                "relationships": [{"name": "r", "from": "A", "to": "B"}],
            }
        )
        rel = cm.relationship("r")
        assert str(rel.to_card) == "0..*"
        assert str(rel.from_card) == "0..*"


class TestRoundTrip:
    def test_round_trips(self):
        cm = model_from_dict(SPEC)
        spec2 = model_to_dict(cm)
        cm2 = model_from_dict(spec2)
        assert cm2.class_names() == cm.class_names()
        assert set(cm2.relationships) == set(cm.relationships)
        assert cm2.isa_links == cm.isa_links
        assert cm2.disjointness_groups == cm.disjointness_groups
        for name in cm.relationships:
            original = cm.relationship(name)
            restored = cm2.relationship(name)
            assert original.to_card == restored.to_card
            assert original.from_card == restored.from_card
            assert original.semantic_type is restored.semantic_type

    def test_reified_survive_round_trip(self):
        cm = model_from_dict(SPEC)
        cm2 = model_from_dict(model_to_dict(cm))
        assert cm2.is_reified("Sell")
        assert {r.name for r in cm2.roles_of("Sell")} == {"seller", "sold"}


def _scanned_roles(model, reified_name):
    """Roles found by scanning every relationship, in insertion order."""
    return tuple(
        rel
        for rel in model.relationships.values()
        if rel.is_role and rel.domain == reified_name
    )


def _models():
    from repro.datasets import synthetic
    from repro.datasets.registry import load_all_datasets

    for pair in load_all_datasets():
        yield pair.source.model
        yield pair.target.model
    for family in ("chain", "isa_fan", "reified_web"):
        source, target, _ = synthetic.scale_point(family, 60)[1]
        yield source.model
        yield target.model


class TestRoleIndex:
    def test_roles_match_a_scan_of_every_relationship(self):
        reified = 0
        for model in _models():
            for cls in model.classes.values():
                if cls.reified:
                    reified += 1
                    assert model.roles_of(cls.name) == _scanned_roles(
                        model, cls.name
                    )
        assert reified > 0

    def test_model_to_dict_unchanged_by_the_index(self, monkeypatch):
        from repro.cm.model import ConceptualModel

        models = list(_models())
        indexed = [model_to_dict(model) for model in models]
        monkeypatch.setattr(ConceptualModel, "roles_of", _scanned_roles)
        assert indexed == [model_to_dict(model) for model in models]

    def test_interleaved_roles_keep_insertion_order(self):
        from repro.cm import ConceptualModel

        cm = ConceptualModel("interleaved")
        for name in ("P", "Q"):
            cm.add_class(name, attributes=[name.lower()], key=[name.lower()])
        cm.add_class("R1", reified=True)
        cm.add_class("R2", reified=True)
        cm.add_relationship("b", "R1", "P", "1..1", is_role=True)
        cm.add_relationship("x", "R2", "Q", "1..1", is_role=True)
        cm.add_relationship("plain", "R1", "Q")
        cm.add_relationship("a", "R1", "Q", "1..1", is_role=True)
        assert [r.name for r in cm.roles_of("R1")] == ["b", "a"]
        assert [r.name for r in cm.roles_of("R2")] == ["x"]
        spec = model_to_dict(cm)
        assert [list(entry["roles"]) for entry in spec["reified"]] == [
            ["b", "a"],
            ["x"],
        ]
