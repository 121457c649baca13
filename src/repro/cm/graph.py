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

#: Node kinds, the first element of a ``CMGraph._nodes`` entry.
_CLASS = "class"
_ATTRIBUTE = "attribute"
#: The entry read for a node the graph does not have.
_NO_NODE = (None, None)


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


class CMGraph:
    """The compiled graph of a :class:`ConceptualModel`.

    Construction materializes both directions of every relationship and
    ISA link, so traversal code never needs to special-case inverses.

    The graph is two insertion-ordered dicts. ``_nodes`` maps each node
    to a ``(kind, extra)`` pair: ``("class", reified)`` for a class node,
    ``("attribute", owner)`` for an attribute node; the pairs are shared
    (one per reified flag, one per owning class). ``_out`` maps
    ``source -> target -> (CMEdge, ...)``, the edges of one pair in the
    order they were added. Attribute nodes have no out-edges and no
    ``_out`` entry. A source's edges therefore iterate grouped by target,
    targets in the order they were first linked from it.
    """

    def __init__(self, model: ConceptualModel) -> None:
        self.model = model
        self._nodes: dict[str, tuple[str, bool | str]] = {}
        self._out: dict[str, dict[str, tuple[CMEdge, ...]]] = {}
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        class_entries = {False: (_CLASS, False), True: (_CLASS, True)}
        for cls in self.model.classes.values():
            self._nodes[cls.name] = class_entries[bool(cls.reified)]
            self._out[cls.name] = {}
            owner_entry = (_ATTRIBUTE, cls.name)
            for attr in cls.attributes:
                node = attribute_node_id(cls.name, attr)
                self._nodes[node] = owner_entry
                edge = CMEdge(
                    label=attr,
                    source=cls.name,
                    target=node,
                    kind=CMEdge.KIND_ATTRIBUTE,
                    forward_card=ONE_ONE,
                    backward_card=ZERO_MANY,
                    base_name=attr,
                )
                self._add_edge(edge)
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
            self._add_edge(forward)
            self._add_edge(forward.reversed())
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
            self._add_edge(forward)
            self._add_edge(forward.reversed())

    def _add_edge(self, edge: CMEdge) -> None:
        # The model checks both endpoints exist, so the source is a class
        # node here. A later edge with the same (source, label, target)
        # replaces the earlier one in place.
        targets = self._out[edge.source]
        bucket = targets.get(edge.target, ())
        for index, old in enumerate(bucket):
            if old.label == edge.label:
                bucket = bucket[:index] + (edge,) + bucket[index + 1 :]
                break
        else:
            bucket += (edge,)
        targets[edge.target] = bucket

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def has_node(self, node: str) -> bool:
        return node in self._nodes

    def class_nodes(self) -> tuple[str, ...]:
        """Class node names, in model declaration order."""
        return self.model.class_names()

    def attribute_nodes(self) -> tuple[str, ...]:
        return tuple(
            sorted(
                n for n, (kind, _) in self._nodes.items() if kind == _ATTRIBUTE
            )
        )

    def is_class_node(self, node: str) -> bool:
        return self._nodes.get(node, _NO_NODE)[0] == _CLASS

    def is_attribute_node(self, node: str) -> bool:
        return self._nodes.get(node, _NO_NODE)[0] == _ATTRIBUTE

    def is_reified(self, node: str) -> bool:
        """True for class nodes standing for reified relationships."""
        kind, reified = self._nodes.get(node, _NO_NODE)
        return kind == _CLASS and reified

    def attribute_owner(self, attr_node: str) -> str:
        """The class node owning an attribute node."""
        if not self.is_attribute_node(attr_node):
            raise ConceptualModelError(f"{attr_node!r} is not an attribute node")
        return self._nodes[attr_node][1]

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[CMEdge]:
        """All directed edges (both directions of every relationship)."""
        for targets in self._out.values():
            for bucket in targets.values():
                yield from bucket

    def edges_from(
        self,
        node: str,
        functional_only: bool = False,
        include_attributes: bool = False,
    ) -> tuple[CMEdge, ...]:
        """Outgoing edges of ``node``, deterministically ordered.

        Attribute edges are excluded by default because connection
        discovery runs over class nodes only.
        """
        targets = self._out.get(node)
        if targets is None:
            if node in self._nodes:
                return ()
            raise ConceptualModelError(f"CM graph has no node {node!r}")
        result = []
        for bucket in targets.values():
            for edge in bucket:
                if edge.is_attribute and not include_attributes:
                    continue
                if functional_only and not edge.is_functional:
                    continue
                result.append(edge)
        return tuple(sorted(result, key=lambda e: (e.label, e.target)))

    def edge(self, source: str, label: str, target: str | None = None) -> CMEdge:
        """Look up the edge with ``label`` leaving ``source``.

        ISA edges all share the ``isa``/``isa⁻`` labels, so when a class
        has several sub- or superclasses the ``target`` argument must
        disambiguate; an ambiguous lookup without it is an error.
        """
        targets = self._out.get(source, {})
        if target is None:
            buckets = targets.values()
        else:
            buckets = (targets.get(target, ()),)
        matches = [
            edge for bucket in buckets for edge in bucket if edge.label == label
        ]
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
        """All directed edges from ``source`` to ``target``."""
        bucket = self._out.get(source, {}).get(target, ())
        return tuple(sorted(bucket, key=lambda e: e.label))

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
        classes = sum(1 for kind, _ in self._nodes.values() if kind == _CLASS)
        attributes = len(self._nodes) - classes
        return classes, attributes

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
