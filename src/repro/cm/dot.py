"""GraphViz DOT export for CM graphs.

Renders conceptual models the way the paper draws them: class nodes as
boxes (reified relationships tagged ``◇``), attributes folded into the
class label, relationship edges labeled with name and cardinalities,
ISA edges as hollow-arrow (``empty`` arrowhead) links, partOf edges with
diamond tails.
"""

from __future__ import annotations

from repro.cm.graph import CMGraph
from repro.cm.model import SemanticType


def _escape(text: str) -> str:
    return text.replace('"', r"\"")


def _class_label(graph: CMGraph, name: str) -> str:
    cm_class = graph.model.cm_class(name)
    marker = "◇" if cm_class.reified else ""
    attributes = "\\n".join(
        f"_{a}_" if a in cm_class.key else a for a in cm_class.attributes
    )
    if attributes:
        return f"{name}{marker}|{attributes}"
    return f"{name}{marker}"


def cm_graph_to_dot(graph: CMGraph, name: str = "cm") -> str:
    """The CM graph as a DOT digraph (forward edges only)."""
    lines = [f'digraph "{_escape(name)}" {{']
    lines.append("  node [shape=record, fontsize=10];")
    for node in graph.class_nodes():
        lines.append(
            f'  "{_escape(node)}" [label="{{{_escape(_class_label(graph, node))}}}"];'
        )
    for edge in sorted(
        graph.edges(), key=lambda e: (e.source, e.label, e.target)
    ):
        if edge.is_inverse or edge.is_attribute:
            continue
        if edge.is_isa:
            lines.append(
                f'  "{_escape(edge.source)}" -> "{_escape(edge.target)}" '
                f"[arrowhead=empty, style=solid, label=isa];"
            )
            continue
        style = ""
        if edge.semantic_type is SemanticType.PART_OF:
            style = ", arrowtail=diamond, dir=both"
        label = (
            f"{edge.label}\\n{edge.backward_card}/{edge.forward_card}"
        )
        lines.append(
            f'  "{_escape(edge.source)}" -> "{_escape(edge.target)}" '
            f'[label="{_escape(label)}"{style}];'
        )
    lines.append("}")
    return "\n".join(lines)

