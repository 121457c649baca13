"""Unit tests for semantic compatibility checks."""

import pytest

from repro.cm import (
    CMGraph,
    CMReasoner,
    ConceptualModel,
    ConnectionCategory,
    SemanticType,
)
from repro.discovery import (
    AnchorProfile,
    ConnectionProfile,
    anchors_compatible,
    compatibility_violation,
    path_semantic_type,
)


@pytest.fixture
def model() -> ConceptualModel:
    cm = ConceptualModel("m")
    cm.add_class("Person", attributes=["pid"], key=["pid"])
    cm.add_class("Book", attributes=["bid"], key=["bid"])
    cm.add_class("Store", attributes=["sid"], key=["sid"])
    cm.add_class("Chapter", attributes=["cid"], key=["cid"])
    cm.add_relationship("writes", "Person", "Book", "0..*", "1..*")
    cm.add_relationship("soldAt", "Book", "Store", "0..*", "0..*")
    cm.add_relationship("favourite", "Person", "Book", "0..1", "0..*")
    cm.add_relationship(
        "chapterOf",
        "Chapter",
        "Book",
        "1..1",
        "0..*",
        semantic_type=SemanticType.PART_OF,
    )
    return cm


@pytest.fixture
def graph(model) -> CMGraph:
    return CMGraph(model)


class TestPathSemanticType:
    def test_all_partof_path(self, graph):
        path = [graph.edge("Chapter", "chapterOf")]
        assert path_semantic_type(path) is SemanticType.PART_OF

    def test_mixed_path_is_plain(self, graph):
        path = [
            graph.edge("Chapter", "chapterOf"),
            graph.edge("Book", "soldAt"),
        ]
        assert path_semantic_type(path) is SemanticType.PLAIN

    def test_empty_path_is_plain(self):
        assert path_semantic_type([]) is SemanticType.PLAIN


class TestConnectionProfile:
    def test_of_path(self, graph):
        profile = ConnectionProfile.of_path(
            [graph.edge("Person", "writes"), graph.edge("Book", "soldAt")]
        )
        assert profile.category is ConnectionCategory.MANY_MANY
        assert profile.length == 2

    def test_functional_profile(self, graph):
        profile = ConnectionProfile.of_path([graph.edge("Person", "favourite")])
        assert profile.category is ConnectionCategory.MANY_ONE


def connections_compatible(source, target):
    return compatibility_violation(source, target) is None


class TestConnectionsCompatible:
    def make(self, category, semantic_type=SemanticType.PLAIN):
        return ConnectionProfile(category, semantic_type, 1)

    def test_many_many_realizes_many_many(self):
        assert connections_compatible(
            self.make(ConnectionCategory.MANY_MANY),
            self.make(ConnectionCategory.MANY_MANY),
        )

    def test_many_many_cannot_realize_functional(self):
        """Example 1.1's hypothetical upper-bound-1 hasBookSoldAt."""
        assert not connections_compatible(
            self.make(ConnectionCategory.MANY_MANY),
            self.make(ConnectionCategory.MANY_ONE),
        )

    def test_functional_realizes_many_many(self):
        assert connections_compatible(
            self.make(ConnectionCategory.MANY_ONE),
            self.make(ConnectionCategory.MANY_MANY),
        )

    def test_partof_target_requires_partof_source(self):
        assert not connections_compatible(
            self.make(ConnectionCategory.MANY_ONE),
            self.make(ConnectionCategory.MANY_ONE, SemanticType.PART_OF),
        )
        assert connections_compatible(
            self.make(ConnectionCategory.MANY_ONE, SemanticType.PART_OF),
            self.make(ConnectionCategory.MANY_ONE, SemanticType.PART_OF),
        )

    def test_partof_source_realizes_plain_target(self):
        assert connections_compatible(
            self.make(ConnectionCategory.MANY_ONE, SemanticType.PART_OF),
            self.make(ConnectionCategory.MANY_ONE),
        )


class TestAnchorProfiles:
    def reified_model(self, cards):
        cm = ConceptualModel("m")
        cm.add_class("A", attributes=["a"], key=["a"])
        cm.add_class("B", attributes=["b"], key=["b"])
        cm.add_reified_relationship(
            "R", roles={"ra": "A", "rb": "B"}, role_cards=cards
        )
        return cm

    def test_many_many_anchor(self):
        cm = self.reified_model({"ra": "0..*", "rb": "0..*"})
        profile = AnchorProfile.of_reified(CMReasoner(cm), "R")
        assert profile.arity == 2
        assert profile.category is ConnectionCategory.MANY_MANY

    def test_many_one_anchor(self):
        # Each A participates at most once: traversing ra⁻ then rb is
        # functional from A to B.
        cm = self.reified_model({"ra": "0..1", "rb": "0..*"})
        profile = AnchorProfile.of_reified(CMReasoner(cm), "R")
        assert profile.category is ConnectionCategory.MANY_ONE

    def test_arity_mismatch_incompatible(self):
        cm = ConceptualModel("m")
        for name in ["A", "B", "C"]:
            cm.add_class(name, attributes=[name.lower()], key=[name.lower()])
        cm.add_reified_relationship(
            "R3", roles={"ra": "A", "rb": "B", "rc": "C"}
        )
        ternary = AnchorProfile.of_reified(CMReasoner(cm), "R3")
        binary = AnchorProfile(2, ConnectionCategory.MANY_MANY)
        assert not anchors_compatible(ternary, binary)
        assert anchors_compatible(binary, binary)

    def test_category_governs_binary_anchors(self):
        many_many = AnchorProfile(2, ConnectionCategory.MANY_MANY)
        many_one = AnchorProfile(2, ConnectionCategory.MANY_ONE)
        assert not anchors_compatible(many_many, many_one)
        assert anchors_compatible(many_one, many_many)
