"""Conceptual subgraphs (CSGs) and the case analysis of Section 3.2–3.3.

A CSG is a candidate connection among marked class nodes in one CM graph,
represented as an anchored :class:`~repro.semantics.stree.SemanticTree`
(structure only — attributes are attached during translation). The
functions here implement the paper's case analysis:

* **Case A** — the target CSG is the s-tree of a single pre-selected
  table; **A.1** roots the source search at the node corresponding to the
  target anchor, **A.2** (no corresponding root) searches all minimal
  functional trees covering the source marked nodes;
* **Case B** — several pre-selected target s-trees: minimal functional
  trees are constructed on *both* sides and paired via Case A heuristics;
* **lossy fallback** (Section 3.3) — when the target connection between
  two marked nodes is many-to-many (or no functional tree exists), the
  source search looks for minimally lossy simple paths instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.cm.graph import CMEdge
from repro.correspondences import LiftedCorrespondence
from repro.discovery.steiner import (
    CostModel,
    DiscoveredTree,
    direction_reversals,
    functional_trees_from_root,
    minimal_functional_trees,
    minimally_lossy_paths,
)
from repro.semantics.lav import SchemaSemantics
from repro.semantics.stree import STreeEdge, STreeNode, SemanticTree


@dataclass(frozen=True)
class CSG:
    """A conceptual subgraph: an anchored tree plus its marked nodes.

    ``marked`` maps each covered CM class name to the tree node standing
    for it (relevant when s-trees contain class copies).
    """

    tree: SemanticTree
    marked: tuple[tuple[str, STreeNode], ...]
    origin: str

    @property
    def anchor(self) -> STreeNode:
        return self.tree.root

    def marked_map(self) -> dict[str, STreeNode]:
        return dict(self.marked)

    def marked_classes(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.marked)

    def node_for(self, class_name: str) -> STreeNode | None:
        return self.marked_map().get(class_name)

    def connecting_path(
        self, first: str, second: str
    ) -> tuple[CMEdge, ...]:
        """Tree path between two marked classes (up to LCA, then down)."""
        nodes = self.marked_map()
        path_a = self.tree.path_from_root(nodes[first])
        path_b = self.tree.path_from_root(nodes[second])
        common = 0
        for edge_a, edge_b in zip(path_a, path_b):
            if edge_a != edge_b:
                break
            common += 1
        up = tuple(
            edge.cm_edge.reversed() for edge in reversed(path_a[common:])
        )
        down = tuple(edge.cm_edge for edge in path_b[common:])
        return up + down

    def cm_edges(self) -> tuple[CMEdge, ...]:
        return self.tree.cm_edges()

    def __str__(self) -> str:
        marked = ", ".join(name for name, _ in self.marked)
        return f"CSG[{self.origin}] anchored at {self.anchor} marking {{{marked}}}"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def discovered_to_semantic_tree(
    tree: DiscoveredTree,
) -> SemanticTree:
    """Convert a search result into an s-tree (nodes are unique, copy 0)."""
    edges = [
        STreeEdge(STreeNode(edge.source), STreeNode(edge.target), edge)
        for edge in _bfs_order(tree)
    ]
    return SemanticTree(STreeNode(tree.root), edges)


def _bfs_order(tree: DiscoveredTree) -> list[CMEdge]:
    remaining = list(tree.edges)
    ordered: list[CMEdge] = []
    frontier = {tree.root}
    while remaining:
        progressed = False
        for edge in list(remaining):
            if edge.source in frontier:
                ordered.append(edge)
                frontier.add(edge.target)
                remaining.remove(edge)
                progressed = True
        if not progressed:
            # Disconnected edges (shouldn't happen for search output).
            ordered.extend(remaining)
            break
    return ordered


def csg_from_discovered(
    tree: DiscoveredTree, marked_classes: Iterable[str], origin: str
) -> CSG:
    semantic_tree = discovered_to_semantic_tree(tree)
    nodes = {node.cm_node: node for node in semantic_tree.nodes()}
    marked = tuple(
        sorted(
            (name, nodes[name])
            for name in set(marked_classes)
            if name in nodes
        )
    )
    return CSG(semantic_tree, marked, origin)


def csg_from_table(
    semantics: SchemaSemantics,
    table_name: str,
    lifted: Sequence[LiftedCorrespondence],
    side: str,
) -> CSG:
    """The CSG given by one pre-selected table's s-tree (Case A).

    Marked nodes are those carrying corresponded columns of this table.
    """
    tree = semantics.tree(table_name)
    marked: dict[str, STreeNode] = {}
    for item in lifted:
        column = (
            item.correspondence.source
            if side == "source"
            else item.correspondence.target
        )
        cls = item.source_class if side == "source" else item.target_class
        if column.table != table_name:
            continue
        marked.setdefault(cls, tree.column_node(column.name))
    return CSG(tree, tuple(sorted(marked.items())), f"table:{table_name}")


# ---------------------------------------------------------------------------
# Target-side CSG discovery
# ---------------------------------------------------------------------------


def find_target_csgs(
    semantics: SchemaSemantics,
    lifted: Sequence[LiftedCorrespondence],
) -> list[CSG]:
    """Target CSGs: Case A (single pre-selected tree) or Case B.

    When every corresponded target column lives in one table, that table's
    s-tree *is* the target CSG. Otherwise minimal functional trees are
    constructed over the target CM graph to connect the pre-selected
    trees' marked nodes (Case B); if none exists, each pre-selected tree
    is returned on its own (the correspondences will be split).
    """
    tables: dict[str, None] = {}
    for item in lifted:
        tables.setdefault(item.correspondence.target.table)
    if not tables:
        return []
    if len(tables) == 1:
        return [csg_from_table(semantics, next(iter(tables)), lifted, "target")]
    marked_classes = {item.target_class for item in lifted}
    cost_model = CostModel.from_edges(
        semantics.preselected_cm_edges(
            [item.correspondence.target for item in lifted]
        )
    )
    trees = minimal_functional_trees(
        semantics.graph, marked_classes, cost_model
    )
    if trees:
        return [
            csg_from_discovered(tree, marked_classes, "constructed")
            for tree in trees
        ]
    # No functional connection: the Section 3.3 rule applies on the
    # target side too — grow partial functional trees with minimally
    # lossy attachment paths.
    extended = extend_partial_trees(semantics, marked_classes, cost_model)
    if extended:
        return extended
    # Fall back to per-table CSGs; the caller pairs each separately.
    return [
        csg_from_table(semantics, table, lifted, "target") for table in tables
    ]


def extend_partial_trees(
    semantics: SchemaSemantics,
    marked_classes: Iterable[str],
    cost_model: CostModel,
    extra_bases: Sequence[CSG] = (),
    max_bases: int = 8,
    max_edges: int = 6,
) -> list[CSG]:
    """Partial functional trees grown by lossy attachments (Section 3.3).

    Bases are functional trees rooted at each marked class (covering
    whatever subset they functionally reach) plus any ``extra_bases``
    (e.g. Case A.1's anchored partial trees); bases of maximal coverage
    are extended first and the first coverage tier that fully connects
    the marked nodes wins. ``max_edges`` caps each lossy path
    (``DiscoveryOptions.max_path_edges``).
    """
    marked = sorted(set(marked_classes))
    bases: list[CSG] = list(extra_bases)
    for root in marked:
        for tree, covered, _ in functional_trees_from_root(
            semantics.graph, root, marked, cost_model
        ):
            bases.append(csg_from_discovered(tree, covered, "partial"))
    seen: set[tuple] = set()
    unique_bases: list[CSG] = []
    for base in sorted(
        bases, key=lambda c: (-len(c.marked), len(c.tree.nodes()), str(c))
    ):
        signature = (
            base.tree.root,
            frozenset(str(edge) for edge in base.tree.edges),
        )
        if signature in seen:
            continue
        seen.add(signature)
        unique_bases.append(base)
    results: list[CSG] = []
    result_signatures: set[tuple] = set()
    best_coverage: int | None = None
    for base in unique_bases[:max_bases]:
        if best_coverage is not None and len(base.marked) < best_coverage:
            break
        missing = set(marked) - base.marked_classes()
        if not missing:
            continue
        for extended in extend_with_lossy_paths(
            semantics, base, missing, cost_model, max_edges=max_edges
        ):
            signature = frozenset(str(edge) for edge in extended.tree.edges)
            if signature in result_signatures:
                continue
            result_signatures.add(signature)
            results.append(extended)
        if results and best_coverage is None:
            best_coverage = len(base.marked)
    return results


# ---------------------------------------------------------------------------
# Source-side CSG discovery
# ---------------------------------------------------------------------------


def source_roots_for_anchor(
    target_csg: CSG, lifted: Sequence[LiftedCorrespondence]
) -> tuple[str, ...]:
    """Source classes corresponding to the target CSG's anchor (Case A.1)."""
    anchor_class = target_csg.anchor.cm_node
    roots: dict[str, None] = {}
    for item in lifted:
        if item.target_class == anchor_class:
            roots.setdefault(item.source_class)
    return tuple(roots)


def find_source_functional_csgs(
    semantics: SchemaSemantics,
    lifted: Sequence[LiftedCorrespondence],
    target_csg: CSG,
) -> list[CSG]:
    """Source CSGs via Cases A.1/A.2 (functional trees only)."""
    marked_classes = {item.source_class for item in lifted}
    cost_model = CostModel.from_edges(
        semantics.preselected_cm_edges(
            [item.correspondence.source for item in lifted]
        )
    )
    roots = source_roots_for_anchor(target_csg, lifted)
    results: list[CSG] = []
    if roots:
        # Case A.1: anchored at the node(s) corresponding to the target
        # anchor; cover as many marked nodes as possible. Tied minimal
        # trees are all kept as alternative candidates (Example 1.3).
        best: list[tuple[int, int, DiscoveredTree, frozenset[str]]] = []
        for root in roots:
            for tree, covered, cost in functional_trees_from_root(
                semantics.graph, root, marked_classes, cost_model
            ):
                if not covered:
                    continue
                best.append((-len(covered), cost, tree, covered))
        if best:
            best.sort(key=lambda item: (item[0], item[1], str(item[2])))
            top = best[0][:2]
            for entry in best:
                if entry[:2] == top:
                    results.append(
                        csg_from_discovered(entry[2], entry[3], "A.1")
                    )
    if not results:
        # Case A.2: no corresponding root — all minimal functional trees.
        for tree in minimal_functional_trees(
            semantics.graph, marked_classes, cost_model
        ):
            results.append(csg_from_discovered(tree, marked_classes, "A.2"))
    return results


def extend_with_lossy_paths(
    semantics: SchemaSemantics,
    base: CSG,
    missing: Iterable[str],
    cost_model: CostModel,
    max_edges: int = 6,
    max_alternatives: int = 3,
) -> list[CSG]:
    """Attach minimally lossy paths reaching the ``missing`` classes.

    This generalizes Section 3.3 beyond a single pair: a (possibly
    single-node) functional base tree is grown by the best lossy path
    from *any* of its nodes to each uncovered marked class — "connect as
    many nodes as possible [functionally] ... and, if necessary, look for
    minimally lossy joins". Paths are ranked by (reversals, cost) and the
    tied best attachments per class each yield an alternative CSG.
    """
    from repro.cm.reasoner import CMReasoner

    reasoner = CMReasoner(semantics.model)

    def acceptable(path: tuple[CMEdge, ...]) -> bool:
        return reasoner.path_is_consistent(list(path))

    states: list[CSG] = [base]
    for target_class in sorted(set(missing)):
        next_states: list[CSG] = []
        for state in states:
            tree_classes = {node.cm_node for node in state.tree.nodes()}
            if target_class in tree_classes:
                # Already reachable: just mark it.
                nodes = {n.cm_node: n for n in state.tree.nodes()}
                next_states.append(
                    CSG(
                        state.tree,
                        tuple(
                            sorted(
                                dict(
                                    list(state.marked)
                                    + [(target_class, nodes[target_class])]
                                ).items()
                            )
                        ),
                        "mixed",
                    )
                )
                continue
            scored: list[tuple[int, int, str, tuple[CMEdge, ...]]] = []
            for start in sorted(tree_classes):
                for path in minimally_lossy_paths(
                    semantics.graph,
                    start,
                    target_class,
                    cost_model,
                    max_edges=max_edges,
                    predicate=acceptable,
                    # Pairwise check → monotone → safe on prefixes.
                    prefix_predicate=acceptable,
                ):
                    intermediate = {edge.target for edge in path[:-1]}
                    if intermediate & tree_classes:
                        continue  # would break tree shape
                    if path[-1].target in tree_classes:
                        continue
                    scored.append(
                        (
                            direction_reversals(path),
                            cost_model.path_cost(path),
                            start,
                            path,
                        )
                    )
            if not scored:
                continue
            scored.sort(key=lambda item: (item[0], item[1], item[2]))
            best = scored[0][:2]
            for reversals, cost, start, path in scored[:max_alternatives]:
                if (reversals, cost) != best:
                    break
                next_states.append(_attach_path(state, path, target_class))
        states = next_states
        if not states:
            return []
    return [state for state in states if state is not base]


def _attach_path(base: CSG, path: tuple[CMEdge, ...], marked_class: str) -> CSG:
    nodes = {node.cm_node: node for node in base.tree.nodes()}
    new_edges = list(base.tree.edges)
    current = nodes[path[0].source]
    for edge in path:
        child = STreeNode(edge.target)
        new_edges.append(STreeEdge(current, child, edge))
        nodes[edge.target] = child
        current = child
    tree = SemanticTree(base.tree.root, new_edges)
    marked = dict(base.marked)
    marked[marked_class] = nodes[marked_class]
    return CSG(tree, tuple(sorted(marked.items())), "mixed")


def single_node_csgs(marked_classes: Iterable[str]) -> list[CSG]:
    """One trivial CSG per marked class (extension seeds)."""
    result = []
    for name in sorted(set(marked_classes)):
        node = STreeNode(name)
        result.append(CSG(SemanticTree(node), ((name, node),), "seed"))
    return result
