"""Outer-join refinement of discovered mappings (the paper's Section 6).

    "a more careful look at the tree provides hints about when joins
    should really be treated as outer-joins (e.g., when the minimum
    cardinality of an edge being traversed is 0, not 1); such information
    could be quite useful in computing more accurate mappings"

This module implements that future-work item: an s-tree edge whose
forward lower bound is 0 means instances of the parent may lack a
partner, so joining the tables realizing the child's subtree must not
drop those instances. :func:`optional_classes` reads the hints off a CSG
and :func:`optional_tables` projects them onto a table-level query; the
engine records the result on each candidate as
:attr:`~repro.mappings.expression.MappingCandidate.source_optional_tables`.
"""

from __future__ import annotations

from repro.discovery.csg import CSG
from repro.queries.conjunctive import ConjunctiveQuery
from repro.semantics.lav import SchemaSemantics
from repro.semantics.stree import STreeNode


def optional_classes(csg: CSG) -> frozenset[str]:
    """CM classes reached through a min-cardinality-0 tree edge.

    The whole subtree below such an edge is optional: the anchor object
    exists without it.
    """
    children: dict[STreeNode, list[STreeNode]] = {}
    optional_roots: list[STreeNode] = []
    for edge in csg.tree.edges:
        children.setdefault(edge.parent, []).append(edge.child)
        if edge.cm_edge.forward_card.lower == 0:
            optional_roots.append(edge.child)
    result: set[str] = set()
    frontier = list(optional_roots)
    while frontier:
        node = frontier.pop()
        result.add(node.cm_node)
        frontier.extend(children.get(node, ()))
    return frozenset(result)


def optional_tables(
    query: ConjunctiveQuery,
    csg: CSG,
    semantics: SchemaSemantics,
) -> frozenset[str]:
    """Tables of ``query`` whose s-tree anchor is an optional class."""
    hints = optional_classes(csg)
    result = set()
    for atom in query.body:
        table = atom.bare_predicate
        if not semantics.has_tree(table):
            continue
        if semantics.tree(table).anchor.cm_node in hints:
            result.add(table)
    return frozenset(result)

