"""Property-based tests for the relational algebra expression trees.

Two families of invariants:

* **construction/rendering round-trips** — an expression rebuilt from
  its own parts is equal to (and hashes with) the original, renders to
  the identical string, and evaluates to the identical
  :class:`~repro.relational.algebra.ResultSet`;
* **determinism under dict-ordering perturbation** — :class:`Rename`
  built from any insertion order of the same mapping, and instances
  populated in any row order, produce identical expressions, renderings,
  and results. The discovery pipeline fingerprints rendered expressions,
  so rendering must never depend on hash or insertion order.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

#: Base tables the generated trees scan. Shared column names (``b``,
#: ``c``) make the natural joins non-trivial.
TABLES = {
    "r": ("a", "b"),
    "s": ("b", "c"),
    "t": ("c", "d"),
}

#: Fresh names renames can map to (disjoint from every table column).
FRESH = ("x", "y", "z", "w")

VALUES = ("v0", "v1", "v2", 0, 1)


def _schema() -> RelationalSchema:
    schema = RelationalSchema("props")
    for name, columns in TABLES.items():
        schema.add_table(Table(name, list(columns), [columns[0]]))
    return schema


def _instance(rows_by_table: dict[str, list[tuple]]) -> Instance:
    instance = Instance(_schema())
    for name, rows in rows_by_table.items():
        instance.add_all(name, rows)
    return instance


@st.composite
def instances(draw) -> Instance:
    rows_by_table = {}
    for name, columns in TABLES.items():
        rows = draw(
            st.lists(
                st.tuples(
                    *[st.sampled_from(VALUES) for _ in columns]
                ),
                max_size=5,
            )
        )
        rows_by_table[name] = rows
    return _instance(rows_by_table)


@st.composite
def expressions(draw, depth: int = 3):
    """A well-formed expression plus the column tuple it produces.

    Tracking the output columns while generating keeps every selection,
    projection, and rename valid by construction, so evaluation never
    raises and the properties test semantics, not error paths.
    """
    if depth == 0:
        name = draw(st.sampled_from(sorted(TABLES)))
        return BaseRelation(name), TABLES[name]
    kind = draw(
        st.sampled_from(
            ["base", "select", "project", "rename", "join"]
        )
    )
    if kind == "base":
        name = draw(st.sampled_from(sorted(TABLES)))
        return BaseRelation(name), TABLES[name]
    child, columns = draw(expressions(depth=depth - 1))
    if kind == "select":
        column = draw(st.sampled_from(columns))
        value = draw(st.sampled_from(VALUES))
        return Selection(child, column, value), columns
    if kind == "project":
        keep = draw(
            st.lists(
                st.sampled_from(columns),
                min_size=1,
                max_size=len(columns),
                unique=True,
            )
        )
        return Projection(child, keep), tuple(keep)
    if kind == "rename":
        # Only rename to fresh names absent from the child's columns —
        # a clash would (correctly) raise at evaluation time.
        available = [f for f in FRESH if f not in columns]
        if not available:
            return child, columns
        renamed = draw(
            st.lists(
                st.sampled_from(columns),
                min_size=1,
                max_size=min(len(columns), len(available)),
                unique=True,
            )
        )
        mapping = {old: available[i] for i, old in enumerate(renamed)}
        out = tuple(mapping.get(c, c) for c in columns)
        return Rename(child, mapping), out
    other, other_columns = draw(expressions(depth=depth - 1))
    out = columns + tuple(c for c in other_columns if c not in columns)
    return NaturalJoin(child, other), out


def _rebuild(expr):
    """A structurally identical copy assembled from the node's parts."""
    if isinstance(expr, BaseRelation):
        return BaseRelation(expr.table_name)
    if isinstance(expr, Selection):
        return Selection(_rebuild(expr.child), expr.column, expr.value)
    if isinstance(expr, Projection):
        return Projection(_rebuild(expr.child), expr.columns)
    if isinstance(expr, Rename):
        return Rename(_rebuild(expr.child), dict(expr.mapping))
    if isinstance(expr, NaturalJoin):
        return NaturalJoin(_rebuild(expr.left), _rebuild(expr.right))
    raise AssertionError(f"unhandled node {type(expr).__name__}")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_construction_round_trips(data):
    expr, columns = data.draw(expressions())
    rebuilt = _rebuild(expr)
    assert rebuilt == expr
    assert hash(rebuilt) == hash(expr)
    assert rebuilt.render() == expr.render()
    assert str(expr) == expr.render()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluation_is_deterministic(data):
    expr, columns = data.draw(expressions())
    instance = data.draw(instances())
    first = expr.evaluate(instance)
    second = expr.evaluate(instance)
    assert first == second
    assert first.sorted_rows() == second.sorted_rows()
    assert first.columns == expr.output_columns(instance)
    assert first.columns == columns


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rename_ignores_mapping_insertion_order(data):
    expr, columns = data.draw(expressions(depth=2))
    available = [f for f in FRESH if f not in columns]
    assume(len(columns) >= 2 and len(available) >= 2)
    renamed = data.draw(
        st.lists(
            st.sampled_from(columns),
            min_size=2,
            max_size=min(len(columns), len(available)),
            unique=True,
        )
    )
    items = [(old, available[i]) for i, old in enumerate(renamed)]
    permuted = data.draw(st.permutations(items))
    forward = Rename(expr, dict(items))
    shuffled = Rename(expr, dict(permuted))
    assert forward == shuffled
    assert forward.render() == shuffled.render()
    instance = data.draw(instances())
    assert forward.evaluate(instance) == shuffled.evaluate(instance)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_results_ignore_row_insertion_order(data):
    expr, _ = data.draw(expressions())
    rows_by_table = {
        name: data.draw(
            st.lists(
                st.tuples(*[st.sampled_from(VALUES) for _ in columns]),
                max_size=4,
                unique=True,
            )
        )
        for name, columns in TABLES.items()
    }
    shuffled = {
        name: data.draw(st.permutations(rows))
        for name, rows in rows_by_table.items()
    }
    first = expr.evaluate(_instance(rows_by_table))
    second = expr.evaluate(_instance(shuffled))
    assert first == second
    assert first.sorted_rows() == second.sorted_rows()
