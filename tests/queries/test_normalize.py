"""Unit tests for key-based query normalization (egd chase)."""

from repro.queries.conjunctive import Constant, Variable
from repro.queries.normalize import KeyPositions, chase_with_keys
from repro.queries.parser import parse_query
from repro.relational import RelationalSchema, Table

KEYS = {"employee": (0,), "enrol": (0, 1)}


class TestKeyPositions:
    def test_from_schema(self):
        schema = RelationalSchema(
            "s",
            [
                Table("employee", ["eid", "name"], ["eid"]),
                Table("log", ["entry"]),
                Table("enrol", ["sid", "cid", "mark"], ["sid", "cid"]),
            ],
        )
        assert KeyPositions(schema) == {
            "employee": (0,),
            "enrol": (0, 1),
        }


class TestChaseWithKeys:
    def test_same_key_atoms_collapse(self):
        q = parse_query("ans(n, s) :- employee(e, n, x), employee(e, y, s)")
        chased = chase_with_keys(q, {"employee": (0,)})
        assert len(chased.body) == 1
        assert chased.head_terms == (Variable("n"), Variable("s"))

    def test_three_way_collapse(self):
        q = parse_query(
            "ans(a, b, c) :- emp(e, a, x, y), emp(e, u, b, v), emp(e, p, q, c)"
        )
        chased = chase_with_keys(q, {"emp": (0,)})
        assert len(chased.body) == 1
        assert chased.head_terms == (Variable("a"), Variable("b"), Variable("c"))

    def test_different_keys_untouched(self):
        q = parse_query("ans(n, s) :- employee(e1, n), employee(e2, s)")
        chased = chase_with_keys(q, {"employee": (0,)})
        assert len(chased.body) == 2

    def test_unkeyed_table_untouched(self):
        q = parse_query("ans(n, s) :- log(e, n), log(e, s)")
        chased = chase_with_keys(q, {"employee": (0,)})
        assert len(chased.body) == 2

    def test_composite_key(self):
        q = parse_query(
            "ans(m1, m2) :- enrol(s, c, m1), enrol(s, c, m2)"
        )
        chased = chase_with_keys(q, {"enrol": (0, 1)})
        assert len(chased.body) == 1
        # The two marks are forced equal: head repeats one variable.
        assert chased.head_terms[0] == chased.head_terms[1]

    def test_constant_conflict_is_unsatisfiable(self):
        q = parse_query(
            "ans(e) :- employee(e, 'ann'), employee(e, 'bob')"
        )
        assert chase_with_keys(q, {"employee": (0,)}) is None

    def test_constant_variable_unify(self):
        q = parse_query("ans(n) :- employee(e, n), employee(e, 'ann')")
        chased = chase_with_keys(q, {"employee": (0,)})
        assert chased.head_terms == (Constant("ann"),)

    def test_head_variables_preferred(self):
        q = parse_query("ans(v1) :- employee(e, v1), employee(e, zz)")
        chased = chase_with_keys(q, {"employee": (0,)})
        assert chased.head_terms == (Variable("v1"),)
        assert Variable("v1") in chased.body[0].terms

    def test_identical_duplicate_atoms_terminate(self):
        # Regression: identical atoms once caused an infinite chase loop.
        q = parse_query("ans(n) :- employee(e, n), employee(e, n)")
        chased = chase_with_keys(q, {"employee": (0,)})
        assert chased is not None
        assert len(chased.body) == 1
