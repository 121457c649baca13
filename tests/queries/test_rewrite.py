"""Unit tests for inverse-rule rewriting, including the paper's Example 3.4."""

import pytest

from repro.exceptions import RewritingError
from repro.queries import (
    ConjunctiveQuery,
    LAVView,
    Variable,
    cm_atom,
    db_atom,
    inverse_rules,
    rewrite_query,
    skolem_function_name,
)
from repro.queries.conjunctive import SkolemTerm

pname, bid, sid = Variable("pname"), Variable("bid"), Variable("sid")
v1, v2, y = Variable("v1"), Variable("v2"), Variable("y")
x = Variable("x")


def bookstore_views() -> list[LAVView]:
    """Key-merged LAV semantics of Example 1.1's source tables."""
    return [
        LAVView("person", [pname], [cm_atom("Person", pname)]),
        LAVView(
            "writes",
            [pname, bid],
            [
                cm_atom("Person", pname),
                cm_atom("Book", bid),
                cm_atom("writes", pname, bid),
            ],
        ),
        LAVView("book", [bid], [cm_atom("Book", bid)]),
        LAVView(
            "soldAt",
            [bid, sid],
            [
                cm_atom("Book", bid),
                cm_atom("Bookstore", sid),
                cm_atom("soldAt", bid, sid),
            ],
        ),
        LAVView("bookstore", [sid], [cm_atom("Bookstore", sid)]),
    ]


class TestLAVView:
    def test_existential_variables(self):
        view = LAVView(
            "pers",
            [pname],
            [cm_atom("Person", x), cm_atom("hasName", x, pname)],
        )
        assert view.existential_variables() == (x,)

    def test_duplicate_head_rejected(self):
        with pytest.raises(RewritingError):
            LAVView("t", [pname, pname], [cm_atom("Person", pname)])

    def test_str(self):
        view = LAVView("person", [pname], [cm_atom("Person", pname)])
        assert "T:person(pname)" in str(view)


class TestInverseRules:
    def test_skolemization_of_existentials(self):
        """The paper's person example: O:Person(f(pname,age)) :- T:person(...)."""
        age = Variable("age")
        view = LAVView(
            "person",
            [pname, age],
            [
                cm_atom("Person", x),
                cm_atom("hasName", x, pname),
                cm_atom("hasAge", x, age),
            ],
        )
        rules = inverse_rules(view)
        assert len(rules) == 3
        person_rule = rules[0]
        skolem = person_rule.head.terms[0]
        assert isinstance(skolem, SkolemTerm)
        assert skolem.function == skolem_function_name("person", x)
        assert skolem.arguments == (pname, age)
        assert person_rule.body.predicate == "T:person"

    def test_merged_views_yield_skolem_free_rules(self):
        rules = inverse_rules(bookstore_views()[1])
        assert all(
            not isinstance(t, SkolemTerm)
            for rule in rules
            for t in rule.head.terms
        )


class TestRewriteExample34:
    def query(self) -> ConjunctiveQuery:
        """The key-merged encoding of Figure 5's CSG (Example 3.3)."""
        return ConjunctiveQuery(
            [v1, v2],
            [
                cm_atom("Person", v1),
                cm_atom("writes", v1, y),
                cm_atom("Book", y),
                cm_atom("soldAt", y, v2),
                cm_atom("Bookstore", v2),
            ],
            name="ans",
        )

    def test_unrestricted_rewriting_contains_q1(self):
        """Without the required-tables filter the maximal rewriting is
        q'₁ = writes ⋈ soldAt (the most general plan)."""
        results = rewrite_query(self.query(), bookstore_views())
        tables = [sorted(a.bare_predicate for a in r.body) for r in results]
        assert ["soldAt", "writes"] in tables

    def test_example_3_4_final_result_is_q3(self):
        results = rewrite_query(
            self.query(),
            bookstore_views(),
            required_tables={"person", "bookstore"},
        )
        assert len(results) == 1
        body_tables = sorted(a.bare_predicate for a in results[0].body)
        assert body_tables == ["bookstore", "person", "soldAt", "writes"]
        # Head preserved: ans(v1, v2).
        assert results[0].head_terms == (v1, v2)

    def test_rewriting_joins_on_shared_variables(self):
        (result,) = rewrite_query(
            self.query(),
            bookstore_views(),
            required_tables={"person", "bookstore"},
        )
        writes_atom = next(
            a for a in result.body if a.bare_predicate == "writes"
        )
        sold_atom = next(a for a in result.body if a.bare_predicate == "soldAt")
        assert writes_atom.terms[1] == sold_atom.terms[0]
        assert writes_atom.terms[0] == v1
        assert sold_atom.terms[1] == v2


class TestRewriteEdgeCases:
    def test_uncovered_predicate_yields_nothing(self):
        query = ConjunctiveQuery([v1], [cm_atom("Alien", v1)])
        assert rewrite_query(query, bookstore_views()) == []

    def test_non_cm_atom_rejected(self):
        query = ConjunctiveQuery([v1], [db_atom("person", v1)])
        with pytest.raises(RewritingError):
            rewrite_query(query, bookstore_views())

    def test_skolem_in_answer_rejected(self):
        """A query asking for an unidentified object has no rewriting."""
        age = Variable("age")
        view = LAVView(
            "person",
            [age],
            [cm_atom("Person", x), cm_atom("hasAge", x, age)],
        )
        query = ConjunctiveQuery([x], [cm_atom("Person", x)])
        assert rewrite_query(query, [view]) == []

    def test_skolem_join_merges_view_occurrences(self):
        """Two atoms Skolem-joined through the same view occurrence merge
        into a single table atom."""
        age = Variable("age")
        view = LAVView(
            "person",
            [age],
            [cm_atom("Person", x), cm_atom("hasAge", x, age)],
        )
        query = ConjunctiveQuery(
            [age], [cm_atom("Person", x), cm_atom("hasAge", x, age)]
        )
        results = rewrite_query(query, [view])
        assert len(results) == 1
        assert len(results[0].body) == 1
        assert results[0].body[0].bare_predicate == "person"

    def test_suffixed_view_variables_stay_apart(self):
        """Renaming a view apart for occurrence 0 maps ``x`` to ``x_0``
        and ``x_0`` to ``x_0_0`` in one step: chasing that renaming
        would merge both columns into ``x_0_0``."""
        x_0 = Variable("x_0")
        view = LAVView("t", [x, x_0], [cm_atom("P", x, x_0)])
        query = ConjunctiveQuery([v1, v2], [cm_atom("P", v1, v2)])
        (result,) = rewrite_query(query, [view])
        assert str(result) == str(
            ConjunctiveQuery([v1, v2], [db_atom("t", v1, v2)])
        )

    def test_required_table_not_mentioned_filters_all(self):
        query = ConjunctiveQuery([v1], [cm_atom("Person", v1)])
        results = rewrite_query(
            query, bookstore_views(), required_tables={"bookstore"}
        )
        assert results == []

    def test_limit_caps_expansion(self):
        query = ConjunctiveQuery([v1], [cm_atom("Person", v1)])
        results = rewrite_query(query, bookstore_views(), limit=1)
        assert len(results) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        """The walk checks the limit only after its first candidate, so a
        limit below 1 would silently act as 1."""
        with pytest.raises(RewritingError, match="at least 1"):
            rewrite_query(
                TestRewriteExample34().query(), bookstore_views(), limit=limit
            )
