"""Unit tests for terms, atoms, unification, and conjunctive queries."""

import pickle

import pytest

from repro.exceptions import QueryError
from repro.queries import (
    Atom,
    ConjunctiveQuery,
    Constant,
    SkolemTerm,
    Variable,
    VariableFactory,
    cm_atom,
    db_atom,
    is_contained_in,
    substitute_atom,
    substitute_term,
    unify_atoms,
    unify_terms,
)

x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")


class TestTerms:
    def test_variable_str(self):
        assert str(x) == "x"

    def test_constant_str(self):
        assert str(Constant("ann")) == "'ann'"

    def test_skolem_str(self):
        term = SkolemTerm("f", (x, Constant(1)))
        assert str(term) == "f(x, 1)"

    def test_atom_str_and_namespaces(self):
        atom = cm_atom("Person", x)
        assert str(atom) == "O:Person(x)"
        assert atom.is_cm_atom and not atom.is_db_atom
        assert atom.bare_predicate == "Person"
        table = db_atom("person", x)
        assert table.is_db_atom
        assert table.bare_predicate == "person"

    def test_empty_predicate_rejected(self):
        with pytest.raises(QueryError):
            Atom("", [x])

    def test_atom_variables_include_skolem_arguments(self):
        atom = Atom("p", [SkolemTerm("f", (x, y)), z])
        assert set(atom.variables()) == {x, y, z}


class TestSubstitution:
    def test_simple(self):
        assert substitute_term(x, {x: y}) == y

    def test_chains_resolve(self):
        assert substitute_term(x, {x: y, y: z}) == z

    def test_skolem_arguments_substituted(self):
        term = SkolemTerm("f", (x,))
        assert substitute_term(term, {x: Constant(1)}) == SkolemTerm(
            "f", (Constant(1),)
        )

    def test_atom_substitution(self):
        atom = Atom("p", [x, y])
        assert substitute_atom(atom, {x: z}) == Atom("p", [z, y])


class TestUnification:
    def test_variable_binds(self):
        assert unify_terms(x, Constant(1)) == {x: Constant(1)}

    def test_symmetric(self):
        assert unify_terms(Constant(1), x) == {x: Constant(1)}

    def test_distinct_constants_fail(self):
        assert unify_terms(Constant(1), Constant(2)) is None

    def test_skolem_structural(self):
        left = SkolemTerm("f", (x,))
        right = SkolemTerm("f", (Constant(1),))
        assert unify_terms(left, right) == {x: Constant(1)}

    def test_skolem_function_mismatch(self):
        assert unify_terms(SkolemTerm("f", (x,)), SkolemTerm("g", (x,))) is None

    def test_occurs_check(self):
        assert unify_terms(x, SkolemTerm("f", (x,))) is None

    def test_atom_unification(self):
        subst = unify_atoms(Atom("p", [x, y]), Atom("p", [Constant(1), z]))
        assert subst == {x: Constant(1), y: z}

    def test_atom_predicate_mismatch(self):
        assert unify_atoms(Atom("p", [x]), Atom("q", [x])) is None

    def test_unification_extends_existing(self):
        subst = unify_terms(x, Constant(1))
        extended = unify_terms(y, x, subst)
        assert substitute_term(y, extended) == Constant(1)

    def test_conflicting_extension_fails(self):
        subst = unify_terms(x, Constant(1))
        assert unify_terms(x, Constant(2), subst) is None

    def test_input_not_mutated(self):
        subst = {x: Constant(1)}
        unify_terms(y, Constant(2), subst)
        assert subst == {x: Constant(1)}


class TestConjunctiveQuery:
    def make_query(self):
        return ConjunctiveQuery(
            [x, z],
            [db_atom("r", x, y), db_atom("s", y, z)],
            name="q",
        )

    def test_head_and_body_variables(self):
        q = self.make_query()
        assert q.head_variables() == (x, z)
        assert set(q.body_variables()) == {x, y, z}
        assert q.existential_variables() == (y,)

    def test_safety_enforced(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery([w], [db_atom("r", x)])

    def test_body_deduplication(self):
        q = ConjunctiveQuery([x], [db_atom("r", x), db_atom("r", x)])
        assert len(q.body) == 1

    def test_equality_ignores_atom_order(self):
        q1 = ConjunctiveQuery([x], [db_atom("r", x), db_atom("s", x)])
        q2 = ConjunctiveQuery([x], [db_atom("s", x), db_atom("r", x)])
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_equality_is_not_modulo_renaming(self):
        q1 = ConjunctiveQuery([x], [db_atom("r", x)])
        q2 = ConjunctiveQuery([y], [db_atom("r", y)])
        assert q1 != q2

    def test_substitute(self):
        q = self.make_query().substitute({x: Constant(1)})
        assert q.head_terms[0] == Constant(1)

    def test_rename_apart(self):
        q = self.make_query().rename_apart("_1")
        assert {v.name for v in q.variables()} == {"x_1", "y_1", "z_1"}

    def test_rename_apart_keeps_suffixed_names_apart(self):
        """``{x: x_1, x_1: x_1_1}`` applies in one step; chasing it would
        merge ``x`` and ``x_1``."""
        x_1 = Variable("x_1")
        q = ConjunctiveQuery([x], [db_atom("p", x, x_1)]).rename_apart("_1")
        assert str(q) == "ans(x_1) :- T:p(x_1, x_1_1)"

    def test_rename_swaps_inside_skolem_terms(self):
        q = ConjunctiveQuery(
            [x, y], [Atom("p", [x, SkolemTerm("f", (x, y))]), Atom("q", [y])]
        ).rename({x: y, y: x})
        assert q.head_terms == (y, x)
        assert q.body[0] == Atom("p", [y, SkolemTerm("f", (y, x))])

    def test_predicates_and_atoms_with(self):
        q = self.make_query()
        assert q.predicates() == {"T:r", "T:s"}
        assert len(q.atoms_with("T:r")) == 1

    def test_has_skolems(self):
        q = ConjunctiveQuery([x], [Atom("p", [x, SkolemTerm("f", (x,))])])
        assert q.has_skolems()
        assert not self.make_query().has_skolems()

    def test_str(self):
        q = ConjunctiveQuery([x], [db_atom("r", x)], name="q1")
        assert str(q) == "q1(x) :- T:r(x)"

    def test_constant_in_head_allowed(self):
        q = ConjunctiveQuery([Constant(1), x], [db_atom("r", x)])
        assert q.head_terms[0] == Constant(1)


class TestPickling:
    """Unpickled terms recompute their cached hash.

    A hash cached under one process's string-hash seed is wrong in
    another, so the cached value must not travel with the object.
    Planting a wrong ``_hash`` stands in for the foreign seed.
    """

    @pytest.mark.parametrize(
        "value",
        [
            x,
            Constant("ann"),
            SkolemTerm("f_t_x", (x, Constant(1))),
            cm_atom("hasName", SkolemTerm("f", (x,)), y),
        ],
        ids=["variable", "constant", "skolem", "atom"],
    )
    def test_hash_is_recomputed_on_load(self, value):
        fresh = hash(value)
        object.__setattr__(value, "_hash", fresh + 1)
        loaded = pickle.loads(pickle.dumps(value))
        object.__setattr__(value, "_hash", fresh)
        assert loaded == value
        assert hash(loaded) == fresh
        assert loaded in {value}

    def test_query_drops_containment_profile(self):
        query = ConjunctiveQuery([x], [cm_atom("Person", x)])
        assert is_contained_in(query, query)
        assert getattr(query, "_hom_profile", None) is not None
        loaded = pickle.loads(pickle.dumps(query))
        assert not hasattr(loaded, "_hom_profile")
        assert loaded == query


class TestVariableFactory:
    def test_fresh_variables_distinct(self):
        fresh = VariableFactory()
        assert fresh() != fresh()

    def test_hint_embedded(self):
        fresh = VariableFactory()
        assert "pk" in fresh("pk").name
