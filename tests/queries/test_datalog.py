"""Unit tests for conjunctive-query evaluation over instances."""

import pytest

from repro.exceptions import QueryError
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
