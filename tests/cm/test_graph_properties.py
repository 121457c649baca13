"""Property tests: every public ``CMGraph`` query against a brute force.

``CMGraph`` stores only the sorted relationship/ISA adjacency and reads
attribute nodes and edges from the model on demand. The reference below
compiles the model the way Section 2 of the paper reads: a node entry
per class, then one per attribute node of that class, later entries for
the same id overwriting earlier ones; both directions of every
relationship and ISA link, an edge with the same (source, label, target)
as an earlier one replacing it in place. Every query is then answered
by scanning those two lists.

The generated models stress what the storage must not get wrong: ISA
fans and several ``isa`` edges from one class, names containing ``.``
(so ``"A.b"`` may be a class and an attribute node at once), and a
relationship literally named ``p⁻`` next to ``p`` (its edge collides
with ``p``'s inverse).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cm import CMGraph, ConceptualModel, INVERSE_MARK
from repro.cm.graph import CMEdge
from repro.cm.model import ISA_LABEL
from repro.cm.cardinality import ONE_ONE, ZERO_MANY, ZERO_ONE
from repro.exceptions import ConceptualModelError

CLASS_NAMES = ["A", "B", "A.b", "C", "A.b.c", "b"]
ATTRIBUTES = ["b", "c", "b.c", "p", "p" + INVERSE_MARK, ISA_LABEL]
RELATIONSHIPS = ["p", "p" + INVERSE_MARK, "q", "b", ISA_LABEL + INVERSE_MARK]
CARDS = ["0..1", "1..1", "0..*", "1..*", "2..3"]


@st.composite
def models(draw):
    cm = ConceptualModel("random")
    names = draw(
        st.lists(
            st.sampled_from(CLASS_NAMES), min_size=1, max_size=5, unique=True
        )
    )
    for name in names:
        cm.add_class(
            name,
            attributes=draw(
                st.lists(st.sampled_from(ATTRIBUTES), max_size=3, unique=True)
            ),
            reified=draw(st.booleans()),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        try:
            cm.add_relationship(
                draw(st.sampled_from(RELATIONSHIPS)),
                draw(st.sampled_from(names)),
                draw(st.sampled_from(names)),
                to_card=draw(st.sampled_from(CARDS)),
                from_card=draw(st.sampled_from(CARDS)),
                is_role=draw(st.booleans()),
            )
        except ConceptualModelError:
            pass  # a repeated relationship name
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        try:
            cm.add_isa(draw(st.sampled_from(names)), draw(st.sampled_from(names)))
        except ConceptualModelError:
            pass  # a self-link or a cycle
    return cm


def _shadowing_model() -> ConceptualModel:
    """Attribute edges replaced by a relationship and by an ISA inverse."""
    cm = ConceptualModel("shadowed")
    cm.add_class("A", attributes=["b", "isa" + INVERSE_MARK])
    cm.add_class("A.b", attributes=["c"])
    cm.add_class("A.isa" + INVERSE_MARK)
    cm.add_relationship("b", "A", "A.b", to_card="0..*")
    cm.add_relationship("p", "A", "A.b")
    cm.add_relationship("p" + INVERSE_MARK, "A.b", "A")
    cm.add_isa("A.isa" + INVERSE_MARK, "A")
    cm.add_isa("A.b", "A")
    return cm


class Reference:
    """The CM graph compiled into two flat lists, queried by scanning."""

    def __init__(self, model: ConceptualModel) -> None:
        self.model = model
        self.entries: list[tuple[str, tuple]] = []  # (node, kind entry)
        self.edge_list: list[CMEdge] = []  # effective edges, add order
        for cls in model.classes.values():
            self.entries.append((cls.name, ("class", cls.reified)))
            for attr in cls.attributes:
                node = f"{cls.name}.{attr}"
                self.entries.append((node, ("attribute", cls.name)))
                self._add(
                    CMEdge(attr, cls.name, node, "attribute", ONE_ONE,
                           ZERO_MANY, base_name=attr)
                )
        for rel in model.relationships.values():
            forward = CMEdge(
                rel.name, rel.domain, rel.range,
                "role" if rel.is_role else "relationship",
                rel.to_card, rel.from_card, rel.semantic_type,
                base_name=rel.name,
            )
            self._add(forward)
            self._add(forward.reversed())
        for sub, sup in sorted(model.isa_links):
            forward = CMEdge(ISA_LABEL, sub, sup, "isa", ONE_ONE, ZERO_ONE,
                             base_name=ISA_LABEL)
            self._add(forward)
            self._add(forward.reversed())

    def _add(self, edge: CMEdge) -> None:
        key = (edge.source, edge.label, edge.target)
        for index, old in enumerate(self.edge_list):
            if (old.source, old.label, old.target) == key:
                self.edge_list[index] = edge
                return
        self.edge_list.append(edge)

    def entry(self, node: str):
        found = (None, None)
        for name, entry in self.entries:
            if name == node:
                found = entry
        return found

    def edges(self) -> list[CMEdge]:
        classes = list(self.model.class_names())
        first_link: dict[tuple[str, str], int] = {}
        for index, edge in enumerate(self.edge_list):
            first_link.setdefault((edge.source, edge.target), index)
        return sorted(
            self.edge_list,
            key=lambda e: (
                classes.index(e.source), first_link[(e.source, e.target)]
            ),
        )

    def edges_from(self, node, functional_only=False, include_attributes=False):
        if node not in self.model.class_names():
            if self.entry(node)[0] is None:
                raise ConceptualModelError(node)
            return ()
        return tuple(
            sorted(
                (
                    e
                    for e in self.edge_list
                    if e.source == node
                    and (include_attributes or not e.is_attribute)
                    and (e.is_functional or not functional_only)
                ),
                key=lambda e: (e.label, e.target),
            )
        )

    def edge(self, source, label, target=None):
        matches = [
            e
            for e in self.edge_list
            if e.source == source
            and e.label == label
            and (target is None or e.target == target)
        ]
        if len(matches) != 1:
            raise ConceptualModelError(f"{len(matches)} matches")
        return matches[0]

    def edges_between(self, source, target):
        return tuple(
            sorted(
                (
                    e
                    for e in self.edge_list
                    if e.source == source and e.target == target
                ),
                key=lambda e: e.label,
            )
        )

    def attribute_nodes(self):
        return tuple(
            sorted(
                {
                    node
                    for node, _ in self.entries
                    if self.entry(node)[0] == "attribute"
                }
            )
        )

    def size(self):
        nodes = {node for node, _ in self.entries}
        classes = sum(1 for node in nodes if self.entry(node)[0] == "class")
        return classes, len(nodes) - classes


def _answer(query, *args, **kwargs):
    """A query's result, or the error type it raised."""
    try:
        return query(*args, **kwargs)
    except ConceptualModelError:
        return ConceptualModelError


@settings(max_examples=300, deadline=None)
@given(model=models())
@example(model=_shadowing_model())
def test_every_query_matches_the_brute_force(model):
    graph = CMGraph(model)
    reference = Reference(model)

    assert list(graph.edges()) == reference.edges()
    assert graph.attribute_nodes() == reference.attribute_nodes()
    assert graph.size() == reference.size()

    nodes = sorted(
        {node for node, _ in reference.entries}
        | {"Ghost", "A.ghost", "A.b.ghost", ""}
    )
    labels = sorted(
        {e.label for e in reference.edge_list} | set(ATTRIBUTES) | {"ghost"}
    )
    for node in nodes:
        kind, extra = reference.entry(node)
        assert graph.has_node(node) == (kind is not None), node
        assert graph.is_class_node(node) == (kind == "class"), node
        assert graph.is_attribute_node(node) == (kind == "attribute"), node
        assert graph.is_reified(node) == (kind == "class" and extra), node
        assert _answer(graph.attribute_owner, node) == (
            extra if kind == "attribute" else ConceptualModelError
        ), node
        for functional_only in (False, True):
            for include_attributes in (False, True):
                flags = dict(
                    functional_only=functional_only,
                    include_attributes=include_attributes,
                )
                assert _answer(graph.edges_from, node, **flags) == _answer(
                    reference.edges_from, node, **flags
                ), (node, flags)
        for label in labels:
            assert _answer(graph.edge, node, label) == _answer(
                reference.edge, node, label
            ), (node, label)
            assert _answer(graph.attribute_edge, node, label) == _answer(
                reference.edge, node, label
            ), (node, label)
            for target in nodes:
                assert _answer(graph.edge, node, label, target) == _answer(
                    reference.edge, node, label, target
                ), (node, label, target)
        for target in nodes:
            assert graph.edges_between(node, target) == (
                reference.edges_between(node, target)
            ), (node, target)


@pytest.mark.parametrize(
    "declared, owner",
    [(["A", "A.b"], None), (["A.b", "A"], "A")],
    ids=["class-declared-last", "attribute-owner-declared-last"],
)
def test_a_shared_id_belongs_to_the_last_declaration(declared, owner):
    cm = ConceptualModel("m")
    for name in declared:
        cm.add_class(name, attributes=["b"] if name == "A" else [])
    graph = CMGraph(cm)
    assert graph.is_attribute_node("A.b") == (owner is not None)
    assert graph.is_class_node("A.b") == (owner is None)
    assert graph.size() == ((2, 0) if owner is None else (1, 1))
    # The class's out-edges and the attribute edge exist either way.
    assert graph.edges_from("A.b") == ()
    assert graph.attribute_edge("A", "b").target == "A.b"
