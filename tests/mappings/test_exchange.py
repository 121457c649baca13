"""Unit tests for data exchange (mapping execution)."""

import pytest

from repro.mappings import SourceToTargetTGD, certain_rows, exchange
from repro.queries.parser import parse_query
from repro.relational import Instance, LabeledNull, RelationalSchema, Table


@pytest.fixture
def source_instance():
    schema = RelationalSchema("source")
    schema.add_table(Table("person", ["pname"], ["pname"]))
    schema.add_table(Table("writes", ["pname", "bid"], ["pname", "bid"]))
    schema.add_table(Table("soldat", ["bid", "sid"], ["bid", "sid"]))
    schema.add_table(Table("bookstore", ["sid"], ["sid"]))
    inst = Instance(schema)
    inst.add_all("person", [("ann",), ("bob",), ("cal",)])
    inst.add_all("writes", [("ann", "b1"), ("bob", "b2")])
    inst.add_all("soldat", [("b1", "s1"), ("b2", "s2"), ("b1", "s2")])
    inst.add_all("bookstore", [("s1",), ("s2",)])
    return inst


@pytest.fixture
def target_schema():
    return RelationalSchema(
        "target", [Table("hasbooksoldat", ["aname", "sid"], ["aname", "sid"])]
    )


class TestExchange:
    def test_m5_produces_complete_tuples(self, source_instance, target_schema):
        m5 = SourceToTargetTGD(
            parse_query(
                "ans(v1, v2) :- person(v1), writes(v1, y), soldat(y, v2), "
                "bookstore(v2)"
            ),
            parse_query("ans(v1, v2) :- hasbooksoldat(v1, v2)"),
            "M5",
        )
        target = exchange([m5], source_instance, target_schema)
        assert set(target.rows("hasbooksoldat")) == {
            ("ann", "s1"),
            ("ann", "s2"),
            ("bob", "s2"),
        }
        # No nulls anywhere: M5 fills complete tuples.
        assert certain_rows(target, "hasbooksoldat") == target.rows(
            "hasbooksoldat"
        )

    def test_m3_generates_labeled_nulls(self, source_instance, target_schema):
        m3 = SourceToTargetTGD(
            parse_query("ans(v1) :- person(v1)"),
            parse_query("ans(v1) :- hasbooksoldat(v1, x)"),
            "M3",
        )
        target = exchange([m3], source_instance, target_schema)
        assert target.size("hasbooksoldat") == 3
        assert certain_rows(target, "hasbooksoldat") == ()
        for _, sid in target.rows("hasbooksoldat"):
            assert isinstance(sid, LabeledNull)

    def test_nulls_deterministic_across_runs(
        self, source_instance, target_schema
    ):
        m3 = SourceToTargetTGD(
            parse_query("ans(v1) :- person(v1)"),
            parse_query("ans(v1) :- hasbooksoldat(v1, x)"),
            "M3",
        )
        first = exchange([m3], source_instance, target_schema)
        second = exchange([m3], source_instance, target_schema)
        assert first.rows("hasbooksoldat") == second.rows("hasbooksoldat")

    def test_multiple_tgds_combine(self, source_instance, target_schema):
        m3 = SourceToTargetTGD(
            parse_query("ans(v1) :- person(v1)"),
            parse_query("ans(v1) :- hasbooksoldat(v1, x)"),
            "M3",
        )
        m4 = SourceToTargetTGD(
            parse_query("ans(v2) :- bookstore(v2)"),
            parse_query("ans(v2) :- hasbooksoldat(y, v2)"),
            "M4",
        )
        target = exchange([m3, m4], source_instance, target_schema)
        assert target.size("hasbooksoldat") == 5

    def test_shared_exports_share_nulls(self, source_instance):
        target_schema = RelationalSchema(
            "t",
            [
                Table("a", ["k", "p"]),
                Table("b", ["k", "q"]),
            ],
        )
        tgd = SourceToTargetTGD(
            parse_query("ans(v1) :- person(v1)"),
            parse_query("ans(v1) :- a(v1, shared), b(v1, shared)"),
        )
        target = exchange([tgd], source_instance, target_schema)
        a_rows = {row[0]: row[1] for row in target.rows("a")}
        b_rows = {row[0]: row[1] for row in target.rows("b")}
        for key, value in a_rows.items():
            assert b_rows[key] == value  # same labeled null on both sides

    def test_exchange_result_satisfies_tgd(self, source_instance, target_schema):
        """The canonical solution must satisfy the mapping it came from."""
        from repro.queries.datalog import evaluate_query

        m5 = SourceToTargetTGD(
            parse_query(
                "ans(v1, v2) :- writes(v1, y), soldat(y, v2)"
            ),
            parse_query("ans(v1, v2) :- hasbooksoldat(v1, v2)"),
        )
        target = exchange([m5], source_instance, target_schema)
        source_answers = evaluate_query(m5.source, source_instance)
        target_answers = evaluate_query(m5.target, target)
        assert source_answers <= target_answers

    def test_premise_must_name_source_tables(
        self, source_instance, target_schema
    ):
        """A premise over a table the source lacks, or with the wrong
        arity, is an error, not an empty solution."""
        from repro.exceptions import QueryError, SchemaError

        unknown = SourceToTargetTGD(
            parse_query("ans(v1) :- author(v1)"),
            parse_query("ans(v1) :- hasbooksoldat(v1, x)"),
        )
        with pytest.raises(SchemaError, match="author"):
            exchange([unknown], source_instance, target_schema)
        misfit = SourceToTargetTGD(
            parse_query("ans(v1) :- person(v1, v2)"),
            parse_query("ans(v1) :- hasbooksoldat(v1, x)"),
        )
        with pytest.raises(QueryError, match="arity 2"):
            exchange([misfit], source_instance, target_schema)
