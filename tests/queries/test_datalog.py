"""Unit tests for conjunctive-query evaluation over instances."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError, SchemaError
from repro.queries import (
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Variable,
    cm_atom,
    db_atom,
    evaluate_query,
)
from repro.relational import Instance, RelationalSchema, Table
from repro.relational.algebra import BaseRelation, NaturalJoin, Projection

x, y, z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture
def instance() -> Instance:
    schema = RelationalSchema("s")
    schema.add_table(Table("writes", ["pname", "bid"]))
    schema.add_table(Table("soldAt", ["bid", "sid"]))
    inst = Instance(schema)
    inst.add_all("writes", [("ann", "b1"), ("bob", "b2"), ("ann", "b2")])
    inst.add_all("soldAt", [("b1", "s1"), ("b2", "s2"), ("b1", "s2")])
    return inst


class TestEvaluation:
    def test_single_atom(self, instance):
        q = ConjunctiveQuery([x], [db_atom("writes", x, y)])
        assert evaluate_query(q, instance) == frozenset({("ann",), ("bob",)})

    def test_join(self, instance):
        q = ConjunctiveQuery(
            [x, z], [db_atom("writes", x, y), db_atom("soldAt", y, z)]
        )
        answers = evaluate_query(q, instance)
        assert ("ann", "s1") in answers
        assert ("ann", "s2") in answers
        assert ("bob", "s2") in answers
        assert len(answers) == 3

    def test_constant_in_body(self, instance):
        q = ConjunctiveQuery(
            [x], [db_atom("writes", x, Constant("b2"))]
        )
        assert evaluate_query(q, instance) == frozenset({("ann",), ("bob",)})

    def test_constant_in_head(self, instance):
        q = ConjunctiveQuery(
            [Constant("tag"), x], [db_atom("writes", x, y)]
        )
        assert ("tag", "ann") in evaluate_query(q, instance)

    def test_repeated_variable_forces_equality(self, instance):
        instance.add("soldAt", ("b9", "b9"))
        q = ConjunctiveQuery([x], [db_atom("soldAt", x, x)])
        assert evaluate_query(q, instance) == frozenset({("b9",)})

    def test_empty_result(self, instance):
        q = ConjunctiveQuery(
            [x], [db_atom("writes", x, Constant("missing"))]
        )
        assert evaluate_query(q, instance) == frozenset()

    def test_cm_atom_rejected(self, instance):
        q = ConjunctiveQuery([x], [cm_atom("Person", x)])
        with pytest.raises(QueryError):
            evaluate_query(q, instance)

    def test_arity_mismatch_rejected(self, instance):
        q = ConjunctiveQuery([x], [db_atom("writes", x)])
        with pytest.raises(QueryError):
            evaluate_query(q, instance)

    def test_skolem_term_rejected(self, instance):
        q = ConjunctiveQuery(
            [x], [db_atom("writes", x, SkolemTerm("f", (x,)))]
        )
        with pytest.raises(QueryError):
            evaluate_query(q, instance)


class TestEveryAtomIsChecked:
    """Each body atom is checked before any row is read, so an empty
    table does not hide an error in another atom."""

    @pytest.fixture
    def with_empty_table(self) -> Instance:
        schema = RelationalSchema(
            "s", [Table("r", ["a", "b"]), Table("e", ["a"])]
        )
        return Instance.from_dict(schema, {"r": [(1, 2)]})

    def test_unknown_table_behind_an_empty_one(self, with_empty_table):
        q = ConjunctiveQuery([x], [db_atom("e", x), db_atom("nosuch", x)])
        with pytest.raises(SchemaError):
            evaluate_query(q, with_empty_table)

    def test_wrong_arity_behind_an_empty_one(self, with_empty_table):
        q = ConjunctiveQuery([x], [db_atom("e", x), db_atom("r", x)])
        with pytest.raises(QueryError):
            evaluate_query(q, with_empty_table)


class TestAgreementWithAlgebra:
    def test_join_query_matches_algebra(self, instance):
        q = ConjunctiveQuery(
            [x, z], [db_atom("writes", x, y), db_atom("soldAt", y, z)]
        )
        algebra = Projection(
            NaturalJoin(BaseRelation("writes"), BaseRelation("soldAt")),
            ["pname", "sid"],
        )
        assert evaluate_query(q, instance) == algebra.evaluate(instance).rows


#: Table arities for the property below; a case uses the first two or
#: all three. Values are drawn from 0-2, so rows often share a value.
ARITY = {"r": 2, "s": 1, "t": 2}
VARIABLES = (x, y, z)
VALUES = st.integers(0, 2)


@st.composite
def query_and_instance(draw):
    tables = list(ARITY)[: draw(st.integers(2, 3))]
    schema = RelationalSchema(
        "s",
        [Table(name, [f"c{i}" for i in range(ARITY[name])]) for name in tables],
    )
    rows = {
        name: draw(st.lists(st.tuples(*[VALUES] * ARITY[name]), max_size=6))
        for name in tables
    }
    term = st.one_of(st.sampled_from(VARIABLES), VALUES.map(Constant))
    body = draw(
        st.lists(
            st.sampled_from(tables).flatmap(
                lambda name: st.lists(
                    term, min_size=ARITY[name], max_size=ARITY[name]
                ).map(lambda terms: db_atom(name, *terms))
            ),
            min_size=1,
            max_size=3,
        )
    )
    bound = ConjunctiveQuery([], body).body_variables()
    head_term = VALUES.map(Constant)
    if bound:
        head_term = st.one_of(st.sampled_from(bound), head_term)
    head = draw(st.lists(head_term, max_size=2))
    return ConjunctiveQuery(head, body), Instance.from_dict(schema, rows)


def brute_force_answers(query, instance):
    """Reference: try every assignment of the body variables over the
    instance's active domain, and keep those that satisfy every atom."""
    tables = {
        atom.bare_predicate: set(instance.rows(atom.bare_predicate))
        for atom in query.body
    }
    domain = sorted(
        {value for rows in tables.values() for row in rows for value in row}
    )
    variables = query.body_variables()

    def value(term, assignment):
        return assignment[term] if isinstance(term, Variable) else term.value

    answers = set()
    for values in itertools.product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            tuple(value(t, assignment) for t in atom.terms)
            in tables[atom.bare_predicate]
            for atom in query.body
        ):
            answers.add(
                tuple(value(t, assignment) for t in query.head_terms)
            )
    return frozenset(answers)


@settings(max_examples=300)
@given(case=query_and_instance())
def test_evaluation_matches_every_assignment(case):
    """Self-joins, repeated variables and constants in the body and the
    head answer exactly as the brute-force reading of the query."""
    query, instance = case
    assert evaluate_query(query, instance) == brute_force_answers(
        query, instance
    )
