"""Unit tests for s-t tgds and query alignment."""

import pytest

from repro.exceptions import QueryError
from repro.mappings import SourceToTargetTGD, align_queries
from repro.queries.parser import parse_query
from repro.queries.conjunctive import Variable


class TestSourceToTargetTGD:
    def make(self):
        source = parse_query("ans(v1, v2) :- writes(v1, y), soldat(y, v2)")
        target = parse_query("ans(v1, v2) :- hasbooksoldat(v1, v2)")
        return SourceToTargetTGD(source, target, "M5")

    def test_arity_must_match(self):
        source = parse_query("ans(x) :- r(x)")
        target = parse_query("ans(x, y) :- s(x, y)")
        with pytest.raises(QueryError):
            SourceToTargetTGD(source, target)

    def test_quantifier_partition(self):
        tgd = self.make()
        assert set(tgd.universal_variables()) == {
            Variable("v1"),
            Variable("y"),
            Variable("v2"),
        }
        assert tgd.existential_variables() == ()

    def test_existential_variables(self):
        source = parse_query("ans(v1) :- person(v1)")
        target = parse_query("ans(v1) :- hasbooksoldat(v1, x)")
        tgd = SourceToTargetTGD(source, target, "M3")
        assert tgd.existential_variables() == (Variable("x"),)
        assert "∃x" in tgd.render()

    def test_render_matches_paper_style(self):
        text = self.make().render()
        assert text.startswith("M5: ∀")
        assert "→" in text
        assert "writes(v1, y)" in text
        # No namespace prefixes in the human-facing rendering.
        assert "T:" not in text

    def test_exported_arity(self):
        assert self.make().exported_arity == 2


class TestAlignQueries:
    def test_target_head_renamed_to_source_head(self):
        source = parse_query("ans(a, b) :- r(a, b)")
        target = parse_query("ans(x, y) :- s(x, y)")
        tgd = align_queries(source, target)
        assert tgd.target.head_terms == (Variable("a"), Variable("b"))

    def test_clashing_body_variables_freshened(self):
        source = parse_query("ans(a) :- r(a, z)")
        target = parse_query("ans(x) :- s(x, z)")
        tgd = align_queries(source, target)
        target_vars = set(tgd.target.variables())
        # The target's z must not capture the source's z.
        assert Variable("z") not in target_vars
        assert Variable("a") in target_vars

    def test_arity_mismatch_rejected(self):
        with pytest.raises(QueryError):
            align_queries(
                parse_query("ans(a) :- r(a)"),
                parse_query("ans(x, y) :- s(x, y)"),
            )

    def test_already_aligned_is_stable(self):
        source = parse_query("ans(v1) :- r(v1)")
        target = parse_query("ans(v1) :- s(v1, w)")
        tgd = align_queries(source, target)
        assert tgd.target.head_terms == (Variable("v1"),)

    def test_swapped_head_names_align_positionally(self):
        source = parse_query("ans(x, y) :- a(x, y)")
        target = parse_query("ans(y, x) :- m(y, x)")
        tgd = align_queries(source, target)
        assert tgd.target == parse_query("ans(x, y) :- m(x, y)")

    def test_renaming_chain_keeps_variables_apart(self):
        """``{y: x, x: x_t}`` renames once: y and x stay two variables."""
        source = parse_query("ans(x) :- a(x, z)")
        target = parse_query("ans(y) :- m(y, x)")
        tgd = align_queries(source, target)
        assert tgd.target == parse_query("ans(x) :- m(x, x_t)")
