"""Unit tests for the mapping lifecycle algebra.

Covers the two operations — containment/equivalence and composition —
plus the MappingSet pruning helpers built on them.
"""

import pytest

from repro.correspondences import Correspondence
from repro.exceptions import QueryError
from repro.mappings import (
    MappingCandidate,
    MappingSet,
    compose,
    contains,
    equivalent,
    exchange,
    implies,
    minimize_mapping_set,
)
from repro.mappings.expression import deduplicate_candidates
from repro.queries.parser import parse_query
from repro.relational import Instance, RelationalSchema, Table


def candidate(source_text, target_text, covered=("p.a <-> q.a",)):
    return MappingCandidate(
        parse_query(source_text),
        parse_query(target_text),
        tuple(Correspondence.parse(c) for c in covered),
    )


class TestImplication:
    def test_weaker_premise_implies_stronger(self):
        weak = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        strong = candidate("ans(x) :- p(x), r(x)", "ans(x) :- q(x)")
        assert implies(weak, strong)
        assert not implies(strong, weak)
        assert contains(weak, strong)
        assert not contains(strong, weak)

    def test_renamed_variables_are_equivalent(self):
        first = candidate("ans(x) :- p(x, y)", "ans(x) :- q(x)")
        second = candidate("ans(u) :- p(u, v)", "ans(u) :- q(u)")
        assert equivalent(first, second)

    def test_redundant_atom_is_equivalent(self):
        lean = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        padded = candidate("ans(x) :- p(x), p(y)", "ans(x) :- q(x)")
        assert equivalent(lean, padded)

    def test_crossed_exports_not_equivalent(self):
        """Per-side boolean equivalence is not tgd equivalence."""
        straight = candidate("ans(x, y) :- p(x, y)", "ans(x, y) :- q(x, y)")
        crossed = candidate("ans(x, y) :- p(x, y)", "ans(x, y) :- q(y, x)")
        assert not equivalent(straight, crossed)

    def test_existential_conclusion_implied_by_stronger(self):
        """q(x, y) entails ∃z q(x, z)."""
        concrete = candidate("ans(x, y) :- p(x, y)", "ans(x, y) :- q(x, y)")
        skolemizing = candidate("ans(x) :- p(x, y)", "ans(x) :- q(x, z)")
        assert implies(concrete, skolemizing)
        assert not implies(skolemizing, concrete)

    def test_set_level_implication_needs_every_candidate(self):
        copier = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        other = candidate("ans(x) :- r(x)", "ans(x) :- s(x)")
        assert not implies(copier, [copier, other])
        assert implies([copier, other], [copier])

    def test_minimize_mapping_set_drops_entailed(self):
        general = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        special = candidate("ans(x) :- p(x), r(x)", "ans(x) :- q(x)")
        minimized = minimize_mapping_set([general, special])
        assert list(minimized) == [general]

    def test_minimize_keeps_independent_candidates(self):
        first = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        second = candidate("ans(x) :- r(x)", "ans(x) :- s(x)")
        assert len(minimize_mapping_set([first, second])) == 2

    def test_minimize_preserves_provenance(self):
        mapping = MappingSet.of(
            [candidate("ans(x) :- p(x)", "ans(x) :- q(x)")],
            fingerprint="abc123",
        )
        assert minimize_mapping_set(mapping).fingerprint == "abc123"


class TestCompose:
    def test_simple_chain(self):
        first = candidate(
            "ans(n) :- person(n)",
            "ans(n) :- emp(n)",
            covered=("person.name <-> emp.name",),
        )
        second = candidate(
            "ans(n) :- emp(n)",
            "ans(n) :- worker(n)",
            covered=("emp.name <-> worker.name",),
        )
        composed = compose(first, second)
        assert len(composed) == 1
        direct = candidate(
            "ans(n) :- person(n)",
            "ans(n) :- worker(n)",
            covered=("person.name <-> worker.name",),
        )
        assert equivalent(composed, direct)
        assert composed.best().method == "composed"
        assert composed.best().covered == direct.covered

    def test_shared_existential_forces_skolem_unification(self):
        """p(x) → ∃y r(x,y)∧t(y) composed with r(u,v)∧t(v) → q(u)
        collapses to p(x) → q(u=x): both premise atoms must resolve to
        the *same* firing because the Skolem for y is shared."""
        first = candidate("ans(x) :- p(x)", "ans(x) :- r(x, y), t(y)")
        second = candidate("ans(u) :- r(u, v), t(v)", "ans(u) :- q(u)")
        composed = compose(first, second)
        assert len(composed) == 1
        assert equivalent(
            composed, candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        )

    def test_null_carried_export_is_dropped(self):
        """An export only a labeled null would carry through the middle
        schema becomes an existential; the head position disappears."""
        first = candidate("ans(x) :- p(x)", "ans(x) :- t(x, y)")
        second = candidate(
            "ans(u, v) :- t(u, v)", "ans(u, v) :- w(u, v)"
        )
        composed = compose(first, second)
        assert len(composed) == 1
        result = composed.best()
        assert "lost to nulls" in result.notes
        assert equivalent(
            result, candidate("ans(x) :- p(x)", "ans(x) :- w(x, e)")
        )

    def test_unmatchable_premise_composes_to_nothing(self):
        first = candidate("ans(x) :- p(x)", "ans(x) :- r(x)")
        second = candidate("ans(x) :- other(x)", "ans(x) :- q(x)")
        assert len(compose(first, second)) == 0

    def test_covered_correspondences_join_on_middle_schema(self):
        first = candidate(
            "ans(a, b) :- src(a, b)",
            "ans(a, b) :- mid(a, b)",
            covered=("src.a <-> mid.a", "src.b <-> mid.b"),
        )
        second = candidate(
            "ans(a, b) :- mid(a, b)",
            "ans(a, b) :- dst(a, b)",
            covered=("mid.a <-> dst.a",),
        )
        (result,) = compose(first, second)
        assert [str(c) for c in result.covered] == ["src.a ↔ dst.a"]

    def test_prune_collapses_redundant_unfoldings(self):
        """Two first-hop candidates producing the same middle table give
        two raw unfoldings; pruning keeps only inequivalent ones."""
        narrow = candidate("ans(x) :- p(x)", "ans(x) :- m(x)")
        wide = candidate("ans(x) :- p(x), r(x)", "ans(x) :- m(x)")
        second = candidate("ans(x) :- m(x)", "ans(x) :- q(x)")
        pruned = compose([narrow, wide], second)
        assert len(pruned) == 1
        raw = compose([narrow, wide], second, prune=False)
        assert len(raw) == 2

    def test_composition_commutes_with_exchange(self):
        """Chaining two exchanges equals one exchange of the composition
        (on the null-free fragment)."""
        s = RelationalSchema("s")
        s.add_table(Table("person", ["name"]))
        t = RelationalSchema("t")
        t.add_table(Table("emp", ["name"]))
        u = RelationalSchema("u")
        u.add_table(Table("worker", ["name"]))
        first = candidate("ans(n) :- person(n)", "ans(n) :- emp(n)")
        second = candidate("ans(n) :- emp(n)", "ans(n) :- worker(n)")
        source = Instance(s)
        source.add_all("person", [("ada",), ("grace",)])
        mid = exchange([first.to_tgd("M1")], source, t)
        chained = exchange([second.to_tgd("M2")], mid, u)
        direct = exchange(compose(first, second).to_tgds(), source, u)
        assert direct.rows("worker") == chained.rows("worker")

    def test_source_value_never_equals_a_null(self):
        """a(x) → ∃y m(x,y) composed with m(u,v) ∧ m(v,w) → q(u): the
        only unfolding needs a(f(x)), a source value equal to a labeled
        null. It is left out, as exchanging twice never fires it."""
        first = candidate("ans(x) :- a(x)", "ans(x) :- m(x, y)")
        second = candidate("ans(u) :- m(u, v), m(v, w)", "ans(u) :- q(u)")
        assert len(compose(first, second, prune=False)) == 0
        assert len(compose(first, second)) == 0
        s = RelationalSchema("s")
        s.add_table(Table("a", ["x"]))
        t = RelationalSchema("t")
        t.add_table(Table("m", ["x", "y"]))
        u = RelationalSchema("u")
        u.add_table(Table("q", ["x"]))
        source = Instance(s)
        source.add_all("a", [("ada",), ("grace",)])
        mid = exchange([first.to_tgd("M1")], source, t)
        chained = exchange([second.to_tgd("R1")], mid, u)
        direct = exchange(compose(first, second).to_tgds(), source, u)
        assert direct.rows("q") == chained.rows("q") == ()

    def test_provenance_names_candidate_positions(self):
        """A candidate whose sides export different arities is refused
        when it is built; composed provenance names each first-hop
        candidate by its own position."""
        with pytest.raises(QueryError, match="same arity: 2 vs 1"):
            candidate(
                "ans(n, a) :- person(n, a)",
                "ans(n) :- emp(n)",
                covered=("person.age <-> emp.name",),
            )
        unrelated = candidate(
            "ans(d) :- dept(d)",
            "ans(d) :- office(d)",
            covered=("dept.name <-> office.name",),
        )
        good = candidate(
            "ans(n) :- person(n, a)",
            "ans(n) :- emp(n)",
            covered=("person.name <-> emp.name",),
        )
        second = candidate(
            "ans(n) :- emp(n)",
            "ans(n) :- worker(n)",
            covered=("emp.name <-> worker.name",),
        )
        (result,) = compose([unrelated, good], second)
        assert result.notes == "composed M2∘R1"
        assert [str(c) for c in result.covered] == [
            "person.name ↔ worker.name"
        ]

    @pytest.mark.parametrize(
        "first_source, first_target, second_source, expected",
        [
            (
                "ans(x, x_0) :- a(x, x_0)",
                "ans(x, x_0) :- m(x, x_0)",
                "ans(u, v) :- m(u, v)",
                "∀x, x_0.(a(x, x_0) → q(x, x_0))",
            ),
            (
                "ans(x, x_1) :- a(x, x_1)",
                "ans(x, x_1) :- m(x, x_1)",
                "ans(u, w) :- m(u, v), m(v, w)",
                "∀x, x_2, x_1.(a(x, x_2) ∧ a(x_2, x_1) → q(x, x_1))",
            ),
        ],
    )
    def test_suffixed_first_hop_names_stay_apart(
        self, first_source, first_target, second_source, expected
    ):
        """The walk renames view variables apart with suffix ``_<i>``:
        at occurrence 0, ``{x: x_0, x_0: x_0_0}`` must not be chased,
        or ``x`` and ``x_0`` merge into one variable."""
        first = candidate(first_source, first_target)
        second = candidate(second_source, "ans(u, w) :- q(u, w)")
        for prune in (False, True):
            (result,) = compose(first, second, prune=prune)
            assert str(result.to_tgd("C")).endswith(expected)
        s = RelationalSchema("s")
        s.add_table(Table("a", ["x", "y"]))
        t = RelationalSchema("t")
        t.add_table(Table("m", ["x", "y"]))
        u = RelationalSchema("u")
        u.add_table(Table("q", ["x", "y"]))
        source = Instance(s)
        source.add_all("a", [("1", "2"), ("2", "3")])
        mid = exchange([first.to_tgd("M1")], source, t)
        chained = exchange([second.to_tgd("R1")], mid, u)
        direct = exchange(compose(first, second).to_tgds(), source, u)
        assert direct.rows("q") == chained.rows("q") != ()

    def test_dropped_unfoldings_count_toward_the_limit(self):
        """Four first-hop candidates under a chain of five ``m`` atoms
        give 4**5 = 1024 unfoldings, each binding a source variable to a
        Skolem term. Left-out unfoldings still count, so the walk stops
        at the limit (and says so) instead of trying all of them."""
        from repro.perf import counters as perf_counters

        firsts = [
            candidate(f"ans(x) :- a{i}(x)", "ans(x) :- m(x, y)")
            for i in range(4)
        ]
        chain = ", ".join(f"m(v{i}, v{i + 1})" for i in range(5))
        second = candidate(f"ans(v0) :- {chain}", "ans(v0) :- q(v0)")
        with perf_counters.scope() as counters:
            assert len(compose(firsts, second, prune=False)) == 0
        assert counters.counts["rewrite_limit_hits"] == 1

    def test_no_per_candidate_solution_cap(self):
        import inspect

        parameters = inspect.signature(compose).parameters
        assert "max_solutions_per_candidate" not in parameters
        first = candidate("ans(x) :- p(x)", "ans(x) :- m(x)")
        with pytest.raises(TypeError):
            compose(first, first, max_solutions_per_candidate=4)


class TestSemanticDedup:
    def test_equivalent_candidates_collapse(self):
        lean = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        padded = candidate("ans(x) :- p(x), p(y)", "ans(x) :- q(x)")
        assert deduplicate_candidates([lean, padded]) == [lean]

    def test_non_equivalent_candidates_all_survive(self):
        """The safety gate: dedup must never drop a candidate that is
        not logically equivalent to a kept one — even when the per-side
        queries are boolean-equivalent (crossed exports)."""
        straight = candidate(
            "ans(x, y) :- p(x, y)", "ans(x, y) :- q(x, y)"
        )
        crossed = candidate(
            "ans(x, y) :- p(x, y)", "ans(x, y) :- q(y, x)"
        )
        kept = deduplicate_candidates([straight, crossed])
        assert kept == [straight, crossed]

    def test_different_covered_sets_never_merge(self):
        first = candidate(
            "ans(x) :- p(x)", "ans(x) :- q(x)", covered=("p.a <-> q.a",)
        )
        second = candidate(
            "ans(x) :- p(x)", "ans(x) :- q(x)", covered=("p.b <-> q.b",)
        )
        assert len(deduplicate_candidates([first, second])) == 2


class TestMappingSetBehaviour:
    def test_of_coerces_and_stamps(self):
        one = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        mapping = MappingSet.of([one], fingerprint="f00d")
        assert MappingSet.of(one).candidates == (one,)
        assert MappingSet.of(mapping).fingerprint == "f00d"
        assert MappingSet.of(mapping, fingerprint="beef").fingerprint == (
            "beef"
        )

    def test_sequence_protocol(self):
        one = candidate("ans(x) :- p(x)", "ans(x) :- q(x)")
        mapping = MappingSet.of([one])
        assert len(mapping) == 1 and bool(mapping)
        assert mapping[0] is one and list(mapping) == [one]
        assert not MappingSet()
        assert MappingSet().best() is None

    def test_render_uses_tgd_names(self):
        mapping = MappingSet.of(
            [
                candidate("ans(x) :- p(x)", "ans(x) :- q(x)"),
                candidate("ans(x) :- r(x)", "ans(x) :- s(x)"),
            ]
        )
        rendered = mapping.render()
        assert "M1" in rendered and "M2" in rendered

    def test_frozen(self):
        mapping = MappingSet()
        with pytest.raises(AttributeError):
            mapping.fingerprint = "nope"
