"""The slotted value objects survive every way the package copies them.

The per-class, per-edge, per-table and per-column value objects, and
the query layer's terms, atoms, queries, LAV views and inverse rules,
have ``__slots__``. Their state then pickles as a tuple of field values
(or, for terms and atoms, as a constructor call) instead of an instance
dict, so each one is round-tripped here through ``pickle``,
``copy.deepcopy`` and ``dataclasses.replace``; and whole scenarios,
which is how ``discover_many`` hands work to its worker processes, must
discover the same mappings after a pickle round trip.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

import repro.perf as perf
from repro.cm import CMGraph, ConceptualModel
from repro.cm.cardinality import Cardinality
from repro.cm.graph import CMEdge
from repro.cm.model import CMClass, Relationship, SemanticType
from repro.datasets import synthetic
from repro.datasets.registry import load_dataset
from repro.discovery.batch import Scenario
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Variable,
    cm_atom,
    db_atom,
)
from repro.queries.rewrite import InverseRule, LAVView, inverse_rules
from repro.relational.constraints import ReferentialConstraint
from repro.relational.schema import Column, Table
from repro.semantics.stree import STreeEdge, STreeNode

SLOTTED = (
    Cardinality,
    CMEdge,
    CMClass,
    Relationship,
    STreeNode,
    STreeEdge,
    Column,
    Table,
    ReferentialConstraint,
    Variable,
    Constant,
    SkolemTerm,
    Atom,
    ConjunctiveQuery,
    InverseRule,
    LAVView,
)

#: Slots a class declares after its fields: per-process caches, left
#: unset until first use.
CACHE_SLOTS = {
    Variable: ("_hash",),
    Constant: ("_hash",),
    SkolemTerm: ("_hash",),
    Atom: ("_hash", "_bare", "_variables"),
    ConjunctiveQuery: ("_hom_profile", "_rewriting_text"),
}


def _fields(cls) -> tuple[str, ...]:
    if cls is ConjunctiveQuery:  # a plain class; these are its state
        return ("name", "head_terms", "body")
    return tuple(field.name for field in dataclasses.fields(cls))


def _graph() -> CMGraph:
    cm = ConceptualModel("books")
    cm.add_class("Person", attributes=["pname"], key=["pname"])
    cm.add_class("Book", attributes=["bid"], key=["bid"])
    cm.add_class("Author")
    cm.add_relationship("writes", "Person", "Book", "0..*", "1..*")
    cm.add_reified_relationship(
        "Review", roles={"by": "Person", "of": "Book"}, attributes=["stars"]
    )
    cm.add_isa("Author", "Person")
    return CMGraph(cm)


def _instances():
    graph = _graph()
    writes = graph.edge("Person", "writes")
    x, pname = Variable("x"), Variable("pname")
    view = LAVView(
        "person", [pname], [cm_atom("Person", x), cm_atom("hasName", x, pname)]
    )
    return [
        Cardinality(0, None),
        Cardinality(1, 1),
        writes,
        writes.reversed(),
        graph.edge("Author", "isa"),
        graph.edge("Review", "by"),
        graph.attribute_edge("Book", "bid"),
        CMClass("Person", ("pname", "age"), ("pname",)),
        CMClass("Review", ("stars",), (), reified=True),
        Relationship(
            "partOf",
            "Chapter",
            "Book",
            Cardinality(1, 1),
            Cardinality(0, None),
            SemanticType.PART_OF,
        ),
        STreeNode("Person"),
        STreeNode("Person", 2),
        STreeEdge(STreeNode("Person"), STreeNode("Book", 1), writes),
        Column("person", "pname"),
        Table("person", ["pname", "age"], ["pname"]),
        ReferentialConstraint("writes", ["pname"], "person", ["pname"]),
        x,
        Constant("ann"),
        Constant(1),
        SkolemTerm("f_person_x", (pname,)),
        cm_atom("hasName", SkolemTerm("f_person_x", (pname,)), pname),
        db_atom("person", pname),
        ConjunctiveQuery([pname], view.body),
        ConjunctiveQuery(
            [x], [cm_atom("Person", x), cm_atom("Book", Constant(1))], "q"
        ),
        view,
        *inverse_rules(view),
    ]


INSTANCES = _instances()
IDS = [f"{type(obj).__name__}:{obj}" for obj in INSTANCES]


def test_every_slotted_class_is_covered():
    assert {type(obj) for obj in INSTANCES} == set(SLOTTED)


@pytest.mark.parametrize("cls", SLOTTED, ids=lambda cls: cls.__name__)
def test_slots_are_the_fields(cls):
    assert cls.__slots__ == _fields(cls) + CACHE_SLOTS.get(cls, ())


@pytest.mark.parametrize("obj", INSTANCES, ids=IDS)
class TestRoundTrip:
    def test_no_instance_dict(self, obj):
        assert not hasattr(obj, "__dict__")

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_pickle(self, obj, protocol):
        back = pickle.loads(pickle.dumps(obj, protocol=protocol))
        assert type(back) is type(obj)
        assert back == obj
        assert hash(back) == hash(obj)
        assert repr(back) == repr(obj)

    def test_deepcopy(self, obj):
        back = copy.deepcopy(obj)
        assert back == obj
        assert hash(back) == hash(obj)

    def test_replace(self, obj):
        if isinstance(obj, ConjunctiveQuery):  # rebuilt from its state
            back = obj.with_name(obj.name)
        else:
            back = dataclasses.replace(obj)
        assert back == obj
        assert hash(back) == hash(obj)


@pytest.mark.parametrize(
    "edge", [obj for obj in INSTANCES if isinstance(obj, CMEdge)], ids=str
)
def test_edge_reversed_twice_is_the_edge(edge):
    assert edge.reversed().reversed() == edge
    assert edge.reversed() != edge


def _tgd_text(scenario: Scenario) -> list[str]:
    perf.clear_caches()
    result = scenario.run()
    assert result.candidates
    return [
        str(candidate.to_tgd(f"M{index}"))
        for index, candidate in enumerate(result.candidates, start=1)
    ]


def _web_scenario() -> Scenario:
    _, (source, target, correspondences) = synthetic.scale_point(
        "reified_web", 150
    )
    return Scenario.create("reified_web@150", source, target, correspondences)


def _paper_scenario() -> Scenario:
    pair = load_dataset("DBLP")
    case = pair.cases[0]
    return Scenario.create(
        case.case_id, pair.source, pair.target, case.correspondences
    )


@pytest.mark.parametrize(
    "build", [_web_scenario, _paper_scenario], ids=["reified_web@150", "paper"]
)
def test_pickled_scenario_discovers_the_same_tgds(build):
    scenario = build()
    shipped = pickle.loads(
        pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert shipped.source is not scenario.source
    assert _tgd_text(shipped) == _tgd_text(scenario)
