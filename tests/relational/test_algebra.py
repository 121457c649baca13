"""Unit and property-based tests for the relational algebra evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.relational import (
    BaseRelation,
    Instance,
    NaturalJoin,
    Projection,
    RelationalSchema,
    Rename,
    Selection,
    Table,
)


@pytest.fixture
def instance() -> Instance:
    schema = RelationalSchema("s")
    schema.add_table(Table("person", ["pname", "city"], ["pname"]))
    schema.add_table(Table("writes", ["pname", "bid"], ["pname", "bid"]))
    schema.add_table(Table("book", ["bid", "title"], ["bid"]))
    inst = Instance(schema)
    inst.add_all(
        "person", [("ann", "toronto"), ("bob", "boston"), ("cal", "toronto")]
    )
    inst.add_all("writes", [("ann", "b1"), ("ann", "b2"), ("bob", "b1")])
    inst.add_all("book", [("b1", "Logic"), ("b2", "Graphs"), ("b3", "Unread")])
    return inst


class TestBaseAndSelection:
    def test_scan(self, instance):
        result = BaseRelation("person").evaluate(instance)
        assert result.columns == ("pname", "city")
        assert len(result) == 3

    def test_selection_constant(self, instance):
        expr = Selection(BaseRelation("person"), "city", "toronto")
        result = expr.evaluate(instance)
        assert {r[0] for r in result.rows} == {"ann", "cal"}

    def test_selection_unknown_column(self, instance):
        with pytest.raises(QueryError):
            Selection(BaseRelation("person"), "ghost", 1).evaluate(instance)

    def test_where_combinator(self, instance):
        result = BaseRelation("person").where("pname", "ann").evaluate(instance)
        assert len(result) == 1


class TestProjectionAndRename:
    def test_projection_reorders(self, instance):
        expr = Projection(BaseRelation("person"), ["city", "pname"])
        result = expr.evaluate(instance)
        assert result.columns == ("city", "pname")
        assert ("toronto", "ann") in result.rows

    def test_projection_deduplicates(self, instance):
        result = Projection(BaseRelation("person"), ["city"]).evaluate(instance)
        assert len(result) == 2

    def test_projection_unknown_column(self, instance):
        with pytest.raises(QueryError):
            Projection(BaseRelation("person"), ["ghost"]).evaluate(instance)

    def test_rename(self, instance):
        expr = Rename(BaseRelation("person"), {"pname": "author"})
        result = expr.evaluate(instance)
        assert result.columns == ("author", "city")

    def test_rename_unknown_column(self, instance):
        with pytest.raises(QueryError):
            Rename(BaseRelation("person"), {"ghost": "x"}).evaluate(instance)

    def test_rename_collision_rejected(self, instance):
        with pytest.raises(QueryError):
            Rename(BaseRelation("person"), {"pname": "city"}).evaluate(instance)


class TestJoins:
    def test_natural_join_on_shared_column(self, instance):
        expr = NaturalJoin(BaseRelation("person"), BaseRelation("writes"))
        result = expr.evaluate(instance)
        assert result.columns == ("pname", "city", "bid")
        assert len(result) == 3

    def test_natural_join_without_shared_is_cross_product(self, instance):
        expr = NaturalJoin(BaseRelation("person"), BaseRelation("book"))
        assert len(expr.evaluate(instance)) == 9

    def test_three_way_join(self, instance):
        expr = BaseRelation("person").join(BaseRelation("writes")).join(
            BaseRelation("book")
        )
        result = expr.evaluate(instance)
        assert ("ann", "toronto", "b1", "Logic") in result.rows


class TestRendering:
    def test_render_mentions_operators(self, instance):
        expr = Projection(
            Selection(
                NaturalJoin(BaseRelation("person"), BaseRelation("writes")),
                "city",
                "toronto",
            ),
            ["pname", "bid"],
        )
        text = expr.render()
        assert "⋈" in text and "σ" in text and "π" in text
        assert str(expr) == text


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

names = st.sampled_from(["ann", "bob", "cal", "dia", "eli"])
cities = st.sampled_from(["toronto", "boston", "paris"])
bids = st.sampled_from(["b1", "b2", "b3", "b4"])


def build_instance(people, writes) -> Instance:
    schema = RelationalSchema("s")
    schema.add_table(Table("person", ["pname", "city"]))
    schema.add_table(Table("writes", ["pname", "bid"]))
    inst = Instance(schema)
    inst.add_all("person", people)
    inst.add_all("writes", writes)
    return inst


people_rows = st.lists(st.tuples(names, cities), max_size=8)
writes_rows = st.lists(st.tuples(names, bids), max_size=8)


@settings(max_examples=50, deadline=None)
@given(people=people_rows, writes=writes_rows)
def test_natural_join_commutes_modulo_column_order(people, writes):
    inst = build_instance(people, writes)
    left = NaturalJoin(BaseRelation("person"), BaseRelation("writes"))
    right = NaturalJoin(BaseRelation("writes"), BaseRelation("person"))
    cols = ("pname", "city", "bid")
    assert (
        left.evaluate(inst).project(cols).rows
        == right.evaluate(inst).project(cols).rows
    )


@settings(max_examples=50, deadline=None)
@given(people=people_rows, writes=writes_rows)
def test_join_size_bounded_by_product(people, writes):
    inst = build_instance(people, writes)
    joined = NaturalJoin(BaseRelation("person"), BaseRelation("writes"))
    assert len(joined.evaluate(inst)) <= inst.size("person") * inst.size("writes")


@settings(max_examples=50, deadline=None)
@given(people=people_rows)
def test_projection_idempotent(people):
    inst = build_instance(people, [])
    once = Projection(BaseRelation("person"), ["pname"]).evaluate(inst)
    twice = Projection(
        Projection(BaseRelation("person"), ["pname"]), ["pname"]
    ).evaluate(inst)
    assert once == twice


@settings(max_examples=50, deadline=None)
@given(people=people_rows, writes=writes_rows)
def test_selection_then_projection_commute(people, writes):
    inst = build_instance(people, writes)
    base = BaseRelation("person")
    a = Projection(Selection(base, "city", "toronto"), ["pname", "city"]).evaluate(
        inst
    )
    b = Selection(Projection(base, ["pname", "city"]), "city", "toronto").evaluate(
        inst
    )
    assert a == b
