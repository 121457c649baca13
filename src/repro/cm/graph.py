"""CM graphs: the labeled directed graphs compiled from conceptual models.

Per Section 2 of the paper, a CM graph has a *class node* per class, an
*attribute node* per (class, attribute) pair, and directed edges:

* for each binary relationship ``p`` from ``C1`` to ``C2``: an edge labeled
  ``p`` from ``C1`` to ``C2`` **and** an inverse edge labeled ``p⁻`` from
  ``C2`` to ``C1``;
* for each attribute ``f`` of ``C``: a functional edge labeled ``f`` from
  ``C`` to the attribute node;
* for each ``C1`` ISA ``C2``: an edge labeled ``isa`` with cardinality
  ``1..1`` forward and ``0..1`` inverse (plus the inverse edge ``isa⁻``).

*Functional edges* — upper-bound 1 in the traversal direction — are the
edges minimal functional trees may use (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.exceptions import ConceptualModelError
from repro.cm.cardinality import (
    Cardinality,
    ConnectionCategory,
    ONE_ONE,
    ZERO_MANY,
    ZERO_ONE,
)
from repro.cm.model import ConceptualModel, ISA_LABEL, SemanticType

#: Suffix marking inverse-direction edge labels, e.g. ``writes⁻``.
INVERSE_MARK = "⁻"


def attribute_node_id(class_name: str, attribute: str) -> str:
    """The node id of an attribute node, ``"Class.attr"``."""
    return f"{class_name}.{attribute}"


@dataclass(frozen=True, slots=True)
class CMEdge:
    """One directed edge of a CM graph.

    ``forward_card`` bounds targets-per-source along this edge's direction
    (the edge is *functional* iff its upper bound is 1); ``backward_card``
    bounds the inverse. ``base_name`` is the underlying relationship name,
    shared by an edge and its inverse.
    """

    label: str
    source: str
    target: str
    kind: str  # "relationship" | "role" | "isa" | "attribute"
    forward_card: Cardinality
    backward_card: Cardinality
    semantic_type: SemanticType = SemanticType.PLAIN
    is_inverse: bool = False
    base_name: str = ""

    KIND_RELATIONSHIP = "relationship"
    KIND_ROLE = "role"
    KIND_ISA = "isa"
    KIND_ATTRIBUTE = "attribute"

    @property
    def is_functional(self) -> bool:
        """Functional in the traversal (source→target) direction."""
        return self.forward_card.is_functional

    @property
    def is_isa(self) -> bool:
        return self.kind == self.KIND_ISA

    @property
    def is_attribute(self) -> bool:
        return self.kind == self.KIND_ATTRIBUTE

    @property
    def category(self) -> ConnectionCategory:
        return ConnectionCategory.of(self.forward_card, self.backward_card)

    def reversed(self) -> "CMEdge":
        """The same edge traversed the other way."""
        if self.is_inverse:
            label = self.label[: -len(INVERSE_MARK)]
        else:
            label = self.label + INVERSE_MARK
        return replace(
            self,
            label=label,
            source=self.target,
            target=self.source,
            forward_card=self.backward_card,
            backward_card=self.forward_card,
            is_inverse=not self.is_inverse,
        )

    def __str__(self) -> str:
        arrow = "->-" if self.is_functional else "---"
        return f"{self.source} ---{self.label}{arrow} {self.target}"


def _attribute_cm_edge(class_name: str, attribute: str) -> CMEdge:
    return CMEdge(
        label=attribute,
        source=class_name,
        target=attribute_node_id(class_name, attribute),
        kind=CMEdge.KIND_ATTRIBUTE,
        forward_card=ONE_ONE,
        backward_card=ZERO_MANY,
        base_name=attribute,
    )


class CMGraph:
    """The compiled graph of a :class:`ConceptualModel`.

    Construction materializes both directions of every relationship and
    ISA link, so traversal code never needs to special-case inverses.

    The graph stores each fact once. :attr:`adjacency` maps every class
    node to its relationship and ISA out-edges, one tuple sorted by
    ``(label, target)`` — exactly what :meth:`edges_from` returns — and
    :attr:`functional_adjacency` to the functional subset of that tuple
    (the same tuple when every edge is functional). Both are shared, not
    copied, with every reader (``GraphIndex`` among them): read them,
    never mutate them. A later edge with the same
    ``(source, label, target)`` replaces an earlier one. Node kinds,
    attribute nodes and attribute edges are not stored: they are read
    from :attr:`model` when asked, so a schema's thousands of attribute
    edges cost nothing until someone looks at one.

    Node ids are not escaped: the attribute node ``"A.b"`` and a class
    named ``"A.b"`` share an id, and then the class declared last claims
    it (the paper's compilation order writes each class's attribute
    nodes right after the class). A relationship or ISA edge with an
    attribute edge's label and target replaces that attribute edge.
    """

    def __init__(self, model: ConceptualModel) -> None:
        self.model = model
        self.adjacency: dict[str, tuple[CMEdge, ...]] = {}
        self.functional_adjacency: dict[str, tuple[CMEdge, ...]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        grouped: dict[str, list[CMEdge]] = {
            name: [] for name in self.model.class_names()
        }
        for edge in self._link_edges():
            # The model checks both endpoints exist, so the source is a
            # class node here.
            grouped[edge.source].append(edge)
        for node, edges in grouped.items():
            latest = {(edge.label, edge.target): edge for edge in edges}
            out = tuple(latest[key] for key in sorted(latest))
            functional = tuple(edge for edge in out if edge.is_functional)
            self.adjacency[node] = out
            self.functional_adjacency[node] = (
                out if len(functional) == len(out) else functional
            )

    def _link_edges(self) -> Iterator[CMEdge]:
        """Relationship and ISA edges, both directions, in model order."""
        for rel in self.model.relationships.values():
            kind = CMEdge.KIND_ROLE if rel.is_role else CMEdge.KIND_RELATIONSHIP
            forward = CMEdge(
                label=rel.name,
                source=rel.domain,
                target=rel.range,
                kind=kind,
                forward_card=rel.to_card,
                backward_card=rel.from_card,
                semantic_type=rel.semantic_type,
                base_name=rel.name,
            )
            yield forward
            yield forward.reversed()
        for sub, sup in sorted(self.model.isa_links):
            forward = CMEdge(
                label=ISA_LABEL,
                source=sub,
                target=sup,
                kind=CMEdge.KIND_ISA,
                forward_card=ONE_ONE,
                backward_card=ZERO_ONE,
                base_name=ISA_LABEL,
            )
            yield forward
            yield forward.reversed()

    def _attribute_edge(self, source: str, attribute: str) -> CMEdge | None:
        """The edge ``source → source.attribute``, if the graph has it.

        ``None`` when ``source`` is not a class, ``attribute`` is not one
        of its attributes, or a relationship or ISA edge with the same
        label and target replaced the attribute edge.
        """
        out = self.adjacency.get(source)
        if out is None:
            return None
        if attribute not in self.model.cm_class(source).attributes:
            return None
        node = attribute_node_id(source, attribute)
        if any(e.label == attribute and e.target == node for e in out):
            return None
        return _attribute_cm_edge(source, attribute)

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def _claimant(self, node: str) -> str | None:
        """The class whose declaration wrote the id ``node``, or ``None``.

        ``node`` itself for a class node, the owning class for an
        attribute node. When several declarations write one id, the last
        declared class wins.
        """
        if "." not in node:  # no attribute node id lacks a dot
            return node if node in self.adjacency else None
        model = self.model
        claims = [node] if node in self.adjacency else []
        dot = node.find(".")
        while dot != -1:
            owner = node[:dot]
            if (
                owner in self.adjacency
                and node[dot + 1 :] in model.cm_class(owner).attributes
            ):
                claims.append(owner)
            dot = node.find(".", dot + 1)
        if len(claims) > 1:
            claims.sort(key=model.class_names().index)
        return claims[-1] if claims else None

    def has_node(self, node: str) -> bool:
        return self._claimant(node) is not None

    def class_nodes(self) -> tuple[str, ...]:
        """Class node names, in model declaration order."""
        return self.model.class_names()

    def attribute_nodes(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                {
                    node
                    for cls in self.model.classes.values()
                    for attribute in cls.attributes
                    if self.is_attribute_node(
                        node := attribute_node_id(cls.name, attribute)
                    )
                }
            )
        )

    def is_class_node(self, node: str) -> bool:
        return self._claimant(node) == node

    def is_attribute_node(self, node: str) -> bool:
        return self._claimant(node) not in (None, node)

    def is_reified(self, node: str) -> bool:
        """True for class nodes standing for reified relationships."""
        return self.is_class_node(node) and self.model.cm_class(node).reified

    def attribute_owner(self, attr_node: str) -> str:
        """The class node owning an attribute node."""
        owner = self._claimant(attr_node)
        if owner in (None, attr_node):
            raise ConceptualModelError(f"{attr_node!r} is not an attribute node")
        return owner

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[CMEdge]:
        """All directed edges (both directions of every relationship).

        Grouped by source node in declaration order; within a source, by
        target in the order it was first linked (attribute nodes first),
        then by declaration. Only rendering and tests read this, so the
        order is replayed from the model on each call rather than stored.
        """
        out: dict[str, dict[str, list[CMEdge]]] = {
            name: {
                attribute_node_id(name, attribute): [
                    _attribute_cm_edge(name, attribute)
                ]
                for attribute in self.model.cm_class(name).attributes
            }
            for name in self.model.class_names()
        }
        for edge in self._link_edges():
            bucket = out[edge.source].setdefault(edge.target, [])
            for index, old in enumerate(bucket):
                if old.label == edge.label:
                    bucket[index] = edge
                    break
            else:
                bucket.append(edge)
        for targets in out.values():
            for bucket in targets.values():
                yield from bucket

    def edges_from(
        self,
        node: str,
        functional_only: bool = False,
        include_attributes: bool = False,
    ) -> tuple[CMEdge, ...]:
        """Outgoing edges of ``node``, sorted by ``(label, target)``.

        Attribute edges are excluded by default because connection
        discovery runs over class nodes only.
        """
        table = self.functional_adjacency if functional_only else self.adjacency
        out = table.get(node)
        if out is None:
            if self.has_node(node):
                return ()
            raise ConceptualModelError(f"CM graph has no node {node!r}")
        if include_attributes:
            attributes = (
                self._attribute_edge(node, attribute)
                for attribute in self.model.cm_class(node).attributes
            )
            out = tuple(
                sorted(
                    out + tuple(e for e in attributes if e is not None),
                    key=lambda e: (e.label, e.target),
                )
            )
        return out

    def edge(self, source: str, label: str, target: str | None = None) -> CMEdge:
        """Look up the edge with ``label`` leaving ``source``.

        ISA edges all share the ``isa``/``isa⁻`` labels, so when a class
        has several sub- or superclasses the ``target`` argument must
        disambiguate; an ambiguous lookup without it is an error.
        """
        matches = [
            edge
            for edge in self.adjacency.get(source, ())
            if edge.label == label and target in (None, edge.target)
        ]
        if target in (None, attribute_node_id(source, label)):
            attribute = self._attribute_edge(source, label)
            if attribute is not None:
                matches.append(attribute)
        if not matches:
            raise ConceptualModelError(
                f"no edge labeled {label!r} leaving node {source!r}"
                + (f" toward {target!r}" if target else "")
            )
        if len(matches) > 1:
            raise ConceptualModelError(
                f"edge label {label!r} leaving {source!r} is ambiguous "
                f"(targets {sorted(e.target for e in matches)}); pass target"
            )
        return matches[0]

    def edges_between(self, source: str, target: str) -> tuple[CMEdge, ...]:
        """All directed edges from ``source`` to ``target``, by label."""
        between = [
            edge
            for edge in self.adjacency.get(source, ())
            if edge.target == target
        ]
        prefix = source + "."
        if target.startswith(prefix):
            attribute = self._attribute_edge(source, target[len(prefix) :])
            if attribute is not None:
                between.append(attribute)
                between.sort(key=lambda e: e.label)
        return tuple(between)

    def attribute_edge(self, class_name: str, attribute: str) -> CMEdge:
        """The edge from a class node to one of its attribute nodes."""
        return self.edge(class_name, attribute)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def functional_edges_from(self, node: str) -> tuple[CMEdge, ...]:
        """Outgoing non-attribute functional edges (tree-growing steps)."""
        return self.edges_from(node, functional_only=True)

    def size(self) -> tuple[int, int]:
        """(number of class nodes, number of attribute nodes)."""
        classes = sum(map(self.is_class_node, self.class_nodes()))
        return classes, len(self.attribute_nodes())

    def describe(self) -> str:
        """Multi-line dump of nodes and forward edges."""
        lines = [f"CM graph of {self.model.name}:"]
        for node in self.class_nodes():
            marker = "◇" if self.is_reified(node) else ""
            lines.append(f"  node {node}{marker}")
        for edge in sorted(
            self.edges(), key=lambda e: (e.source, e.label, e.target)
        ):
            if edge.is_inverse or edge.is_attribute:
                continue
            lines.append(f"  {edge}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        classes, attributes = self.size()
        return (
            f"CMGraph({self.model.name!r}, classes={classes}, "
            f"attributes={attributes})"
        )
