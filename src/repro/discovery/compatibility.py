"""Semantic compatibility between source and target connections.

Implements observation (i) of Section 3.2 plus the Section 3.3
refinements: a connection discovered in the source must be *compatible*
with the target connection it realizes —

* by **cardinality category**: a target connection functional in a
  direction demands a source connection functional in that direction
  (Example 1.1's hypothetical upper-bound-1 ``hasBookSoldAt``);
* by **semantic type**: a **partOf** target relationship should pair with
  a **partOf** source connection (Example 1.3's ``chairOf`` vs ``deanOf``);
* by **consistency**: CSGs denoting the empty class (ISA up then ISA⁻
  down into a disjoint sibling) are eliminated outright;
* by **reified-anchor category** (Section 3.3): a target tree rooted at a
  reified relationship prefers source anchors of the same arity and
  many-many/many-one/one-one flavor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cm.cardinality import ConnectionCategory, categories_compatible
from repro.cm.graph import CMEdge
from repro.cm.model import SemanticType
from repro.cm.reasoner import CMReasoner


def path_semantic_type(edges: Sequence[CMEdge]) -> SemanticType:
    """The semantic type of a composed connection.

    A composition is **partOf** when every proper relationship edge along
    it is partOf (ISA and attribute edges are neutral); any plain
    relationship edge makes the whole connection plain.
    """
    relationship_edges = [
        edge
        for edge in edges
        if edge.kind in (CMEdge.KIND_RELATIONSHIP, CMEdge.KIND_ROLE)
    ]
    if relationship_edges and all(
        edge.semantic_type is SemanticType.PART_OF
        for edge in relationship_edges
    ):
        return SemanticType.PART_OF
    return SemanticType.PLAIN


@dataclass(frozen=True)
class ConnectionProfile:
    """Everything compatibility checks need to know about one connection."""

    category: ConnectionCategory
    semantic_type: SemanticType
    length: int

    @classmethod
    def of_path(cls, edges: Sequence[CMEdge]) -> "ConnectionProfile":
        return cls(
            category=CMReasoner.path_category(edges),
            semantic_type=path_semantic_type(edges),
            length=len(edges),
        )


def compatibility_violation(
    source: ConnectionProfile,
    target: ConnectionProfile,
    check_cardinality: bool = True,
    check_semantic_type: bool = True,
) -> str | None:
    """Name the rule an incompatible pair violates, or ``None`` if none.

    Cardinality: the source category must satisfy every functionality
    constraint of the target category (rule ``"cardinality"``). Semantic
    type: a partOf target rejects a plain source (rule ``"partOf"``; the
    paper "eliminates or downgrades" such pairings — we eliminate, which
    is what drives the precision gain in Example 1.3). A partOf source
    may still realize a plain target.

    The returned rule names are part of the explain-trace vocabulary
    (see :class:`repro.trace.PruneEvent`). The ``check_*`` flags support
    ablation experiments.
    """
    if check_cardinality and not categories_compatible(
        source.category, target.category
    ):
        return "cardinality"
    if (
        check_semantic_type
        and target.semantic_type is SemanticType.PART_OF
        and source.semantic_type is not SemanticType.PART_OF
    ):
        return "partOf"
    return None


@dataclass(frozen=True)
class AnchorProfile:
    """Section 3.3's preferences for reified-relationship anchors."""

    arity: int
    category: ConnectionCategory

    @classmethod
    def of_reified(
        cls, reasoner: CMReasoner, reified_class: str
    ) -> "AnchorProfile":
        roles = reasoner.model.roles_of(reified_class)
        if len(roles) == 2:
            first, second = roles
            # Traversing role1⁻ then role2 recovers the binary category.
            category = ConnectionCategory.of(
                first.from_card.compose(second.to_card),
                second.from_card.compose(first.to_card),
            )
        else:
            category = ConnectionCategory.MANY_MANY
        return cls(arity=len(roles), category=category)


def anchors_compatible(source: AnchorProfile, target: AnchorProfile) -> bool:
    """Reified anchors must agree on arity and satisfy the target category."""
    if source.arity != target.arity:
        return False
    return categories_compatible(source.category, target.category)
