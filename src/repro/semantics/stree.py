"""Semantic trees (s-trees): the semantics of one table in a CM graph.

Per Section 2, the semantics of a table is a subtree of the CM graph
whose nodes may be *copies* of CM classes (to handle multiple or
recursive relationships between the same entities), together with a
bijective association between the table's columns and attribute nodes of
the tree, an *anchor* (the tree root — the central object the table was
derived from), and identifier information carried by the CM classes' keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import SemanticsError
from repro.cm.graph import CMEdge, CMGraph

#: Separator between a class name and a copy index in node ids.
COPY_MARK = "~"


@dataclass(frozen=True, order=True, slots=True)
class STreeNode:
    """A (possibly copied) class node inside an s-tree.

    ``STreeNode("Person", 1)`` renders as ``Person~1`` — the paper's
    ``Person_copy1`` for e.g. the spouse in ``pers(pid, spousePid)``.
    """

    cm_node: str
    copy: int = 0

    def __post_init__(self) -> None:
        if self.copy < 0:
            raise SemanticsError("copy index must be non-negative")

    @property
    def node_id(self) -> str:
        if self.copy == 0:
            return self.cm_node
        return f"{self.cm_node}{COPY_MARK}{self.copy}"

    @classmethod
    def parse(cls, node_id: str) -> "STreeNode":
        """Parse ``"Person"`` or ``"Person~1"``."""
        if COPY_MARK in node_id:
            name, _, index = node_id.rpartition(COPY_MARK)
            try:
                return cls(name, int(index))
            except ValueError:
                raise SemanticsError(f"bad copy index in {node_id!r}") from None
        return cls(node_id)

    def __str__(self) -> str:
        return self.node_id


@dataclass(frozen=True, slots=True)
class STreeEdge:
    """A directed tree edge: ``parent --cm_edge--> child``."""

    parent: STreeNode
    child: STreeNode
    cm_edge: CMEdge

    def __post_init__(self) -> None:
        if self.cm_edge.source != self.parent.cm_node:
            raise SemanticsError(
                f"edge {self.cm_edge.label!r} leaves {self.cm_edge.source!r}, "
                f"not {self.parent.cm_node!r}"
            )
        if self.cm_edge.target != self.child.cm_node:
            raise SemanticsError(
                f"edge {self.cm_edge.label!r} enters {self.cm_edge.target!r}, "
                f"not {self.child.cm_node!r}"
            )

    def __str__(self) -> str:
        arrow = "->-" if self.cm_edge.is_functional else "---"
        return f"{self.parent} ---{self.cm_edge.label}{arrow} {self.child}"


class SemanticTree:
    """An anchored s-tree plus the column ↔ attribute-node association.

    Parameters
    ----------
    root:
        The anchor node.
    edges:
        Tree edges; every edge's parent must already be reachable from the
        root, and every node except the root has exactly one incoming edge.
    columns:
        ``column name → (node, attribute name)``; each attribute must
        belong to the node's CM class, and no two columns may share the
        same attribute node (the association is bijective).
    """

    def __init__(
        self,
        root: STreeNode,
        edges: Sequence[STreeEdge] = (),
        columns: Mapping[str, tuple[STreeNode, str]] | None = None,
    ) -> None:
        self.root = root
        self.edges: tuple[STreeEdge, ...] = tuple(edges)
        self.columns: dict[str, tuple[STreeNode, str]] = dict(columns or {})
        self._validate_tree()
        self._validate_columns()

    def _validate_tree(self) -> None:
        reachable = {self.root}
        parents: dict[STreeNode, STreeNode] = {}
        remaining = list(self.edges)
        progress = True
        while remaining and progress:
            progress = False
            for edge in list(remaining):
                if edge.parent in reachable:
                    if edge.child in reachable:
                        raise SemanticsError(
                            f"node {edge.child} has two incoming edges or a "
                            f"cycle in the s-tree"
                        )
                    reachable.add(edge.child)
                    parents[edge.child] = edge.parent
                    remaining.remove(edge)
                    progress = True
        if remaining:
            raise SemanticsError(
                f"s-tree edges not connected to root {self.root}: "
                f"{[str(e) for e in remaining]}"
            )

    def _validate_columns(self) -> None:
        nodes = set(self.nodes())
        seen_attributes: set[tuple[STreeNode, str]] = set()
        for column, (node, attribute) in self.columns.items():
            if node not in nodes:
                raise SemanticsError(
                    f"column {column!r} maps to node {node} outside the tree"
                )
            if (node, attribute) in seen_attributes:
                raise SemanticsError(
                    f"attribute node {node}.{attribute} used by two columns"
                )
            seen_attributes.add((node, attribute))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def anchor(self) -> STreeNode:
        """The central object of the tree (Section 2)."""
        return self.root

    def nodes(self) -> tuple[STreeNode, ...]:
        """All tree nodes, root first, in edge order."""
        result: dict[STreeNode, None] = {self.root: None}
        for edge in self.edges:
            result.setdefault(edge.parent)
            result.setdefault(edge.child)
        return tuple(result)

    def cm_nodes(self) -> frozenset[str]:
        """The set of underlying CM class nodes (copies collapse)."""
        return frozenset(node.cm_node for node in self.nodes())

    def cm_edges(self) -> tuple[CMEdge, ...]:
        return tuple(edge.cm_edge for edge in self.edges)

    def children(self, node: STreeNode) -> tuple[STreeEdge, ...]:
        return tuple(e for e in self.edges if e.parent == node)

    def parent_edge(self, node: STreeNode) -> STreeEdge | None:
        for edge in self.edges:
            if edge.child == node:
                return edge
        return None

    def path_from_root(self, node: STreeNode) -> tuple[STreeEdge, ...]:
        """The unique root→node edge path."""
        if node == self.root:
            return ()
        path: list[STreeEdge] = []
        current = node
        while current != self.root:
            edge = self.parent_edge(current)
            if edge is None:
                raise SemanticsError(f"node {node} not in s-tree")
            path.append(edge)
            current = edge.parent
        return tuple(reversed(path))

    def is_anchored_functional(self) -> bool:
        """True when every root-to-node path is functional.

        This is the shape the paper calls an *anchored s-tree* (Example
        3.1) and, equivalently, a functional tree rooted at the anchor.
        """
        return all(edge.cm_edge.is_functional for edge in self.edges)

    def columns_of_node(self, node: STreeNode) -> tuple[str, ...]:
        """Columns whose attribute nodes hang off ``node``."""
        return tuple(
            sorted(
                column
                for column, (owner, _) in self.columns.items()
                if owner == node
            )
        )

    def column_class(self, column: str) -> str:
        """The CM class carrying the attribute behind ``column``."""
        try:
            node, _ = self.columns[column]
        except KeyError:
            raise SemanticsError(
                f"s-tree has no column {column!r}"
            ) from None
        return node.cm_node

    def column_node(self, column: str) -> STreeNode:
        try:
            return self.columns[column][0]
        except KeyError:
            raise SemanticsError(f"s-tree has no column {column!r}") from None

    def column_attribute(self, column: str) -> str:
        try:
            return self.columns[column][1]
        except KeyError:
            raise SemanticsError(f"s-tree has no column {column!r}") from None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: CMGraph,
        root: str,
        edges: Iterable[tuple[str, str, str]] = (),
        columns: Mapping[str, str] | None = None,
    ) -> "SemanticTree":
        """Build an s-tree from compact textual specifications.

        ``edges`` are ``(parent_id, edge_label, child_id)`` triples where
        node ids may carry copy marks (``"Person~1"``); ``columns`` maps a
        column name to ``"node_id.attribute"``.

        >>> # writes(pname, bid) from Figure 1 (doctest setup elided)
        """
        root_node = STreeNode.parse(root)
        if not graph.is_class_node(root_node.cm_node):
            raise SemanticsError(
                f"root {root!r} is not a class node of the CM graph"
            )
        tree_edges = []
        for parent_id, label, child_id in edges:
            parent = STreeNode.parse(parent_id)
            child = STreeNode.parse(child_id)
            try:
                cm_edge = graph.edge(parent.cm_node, label, child.cm_node)
            except Exception as exc:
                raise SemanticsError(
                    f"edge {label!r} from {parent.cm_node!r} to "
                    f"{child.cm_node!r}: {exc}"
                ) from exc
            tree_edges.append(STreeEdge(parent, child, cm_edge))
        column_map: dict[str, tuple[STreeNode, str]] = {}
        for column, target in (columns or {}).items():
            node_id, _, attribute = target.rpartition(".")
            if not node_id:
                raise SemanticsError(
                    f"column target must be 'node.attribute', got {target!r}"
                )
            node = STreeNode.parse(node_id)
            owner_class = graph.model.cm_class(node.cm_node)
            if attribute not in owner_class.attributes:
                raise SemanticsError(
                    f"class {node.cm_node!r} has no attribute {attribute!r}"
                )
            column_map[column] = (node, attribute)
        return cls(root_node, tree_edges, column_map)

    def describe(self) -> str:
        lines = [f"s-tree anchored at {self.root}:"]
        for edge in self.edges:
            lines.append(f"  {edge}")
        for column, (node, attribute) in sorted(self.columns.items()):
            lines.append(f"  column {column} ↦ {node}.{attribute}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SemanticTree(root={self.root}, edges={len(self.edges)}, "
            f"columns={sorted(self.columns)})"
        )
