"""Unit tests for the symbolic chase with inclusion dependencies."""

import pytest

from repro.baseline.logical_relations import compute_logical_relations
from repro.datasets.registry import dataset_names, load_dataset
from repro.evaluation.measures import constraint_closure
from repro.exceptions import QueryError
from repro.perf import counters as perf_counters
from repro.queries import (
    ChaseEngine,
    InclusionDependency,
    table_seed_atom,
)
from repro.queries.conjunctive import Variable
from repro.relational import ReferentialConstraint, RelationalSchema, Table


def bookstore_schema() -> RelationalSchema:
    schema = RelationalSchema("source")
    schema.add_table(Table("person", ["pname"], ["pname"]))
    schema.add_table(Table("writes", ["pname", "bid"], ["pname", "bid"]))
    schema.add_table(Table("book", ["bid"], ["bid"]))
    schema.add_table(Table("soldAt", ["bid", "sid"], ["bid", "sid"]))
    schema.add_table(Table("bookstore", ["sid"], ["sid"]))
    for text in [
        "writes.pname -> person.pname",
        "writes.bid -> book.bid",
        "soldAt.bid -> book.bid",
        "soldAt.sid -> bookstore.sid",
    ]:
        schema.add_ric(ReferentialConstraint.parse(text))
    return schema


def dependencies(schema):
    return [InclusionDependency.from_ric(r, schema) for r in schema.rics]


class TestInclusionDependency:
    def test_from_ric_positions(self):
        schema = bookstore_schema()
        dep = InclusionDependency.from_ric(schema.rics[0], schema)
        assert dep.child_predicate == "writes"
        assert dep.child_positions == (0,)
        assert dep.parent_predicate == "person"
        assert dep.parent_arity == 1

    def test_position_validation(self):
        with pytest.raises(QueryError):
            InclusionDependency("a", (0,), "b", (5,), parent_arity=2)
        with pytest.raises(QueryError):
            InclusionDependency("a", (0,), "b", (0, 1), parent_arity=2)
        with pytest.raises(QueryError):
            InclusionDependency("a", (), "b", (), parent_arity=1)


class TestSeedAtom:
    def test_variables_named_after_columns(self):
        schema = bookstore_schema()
        atom = table_seed_atom(schema, "writes")
        assert atom.predicate == "writes"
        assert [t.name for t in atom.terms] == [
            "x_writes_pname",
            "x_writes_bid",
        ]


class TestChase:
    def test_example_1_1_logical_relation_s1(self):
        """Chasing writes with r1, r2 yields person ⋈ writes ⋈ book."""
        schema = bookstore_schema()
        engine = ChaseEngine(dependencies(schema))
        atoms = engine.chase([table_seed_atom(schema, "writes")])
        predicates = sorted(a.predicate for a in atoms)
        assert predicates == ["book", "person", "writes"]
        # The join variables are shared.
        by_pred = {a.predicate: a for a in atoms}
        assert by_pred["person"].terms[0] == by_pred["writes"].terms[0]
        assert by_pred["book"].terms[0] == by_pred["writes"].terms[1]

    def test_example_1_1_logical_relation_s2(self):
        schema = bookstore_schema()
        engine = ChaseEngine(dependencies(schema))
        atoms = engine.chase([table_seed_atom(schema, "soldAt")])
        assert sorted(a.predicate for a in atoms) == [
            "book",
            "bookstore",
            "soldAt",
        ]

    def test_leaf_table_chases_to_itself(self):
        schema = bookstore_schema()
        engine = ChaseEngine(dependencies(schema))
        atoms = engine.chase([table_seed_atom(schema, "person")])
        assert len(atoms) == 1

    def test_satisfied_dependency_not_reapplied(self):
        schema = bookstore_schema()
        engine = ChaseEngine(dependencies(schema))
        seed = [
            table_seed_atom(schema, "writes"),
            table_seed_atom(schema, "person", variable_prefix="x_writes"),
        ]
        atoms = engine.chase(seed)
        assert sum(1 for a in atoms if a.predicate == "person") == 1

    def test_transitive_chase(self):
        schema = RelationalSchema("s")
        schema.add_table(Table("a", ["x"], ["x"]))
        schema.add_table(Table("b", ["x"], ["x"]))
        schema.add_table(Table("c", ["x"], ["x"]))
        schema.add_ric(ReferentialConstraint.parse("a.x -> b.x"))
        schema.add_ric(ReferentialConstraint.parse("b.x -> c.x"))
        engine = ChaseEngine(dependencies(schema))
        atoms = engine.chase([table_seed_atom(schema, "a")])
        assert sorted(a.predicate for a in atoms) == ["a", "b", "c"]
        # All three share the same variable.
        assert len({a.terms[0] for a in atoms}) == 1

    def test_cyclic_ric_terminates(self):
        schema = RelationalSchema("s")
        schema.add_table(Table("emp", ["eid", "mgr"], ["eid"]))
        schema.add_ric(ReferentialConstraint.parse("emp.mgr -> emp.eid"))
        engine = ChaseEngine(dependencies(schema), max_depth=3)
        atoms = engine.chase([table_seed_atom(schema, "emp")])
        # Bounded unfolding: seed plus at most max_depth new emp atoms.
        assert 2 <= len(atoms) <= 4

    def test_max_depth_validation(self):
        with pytest.raises(QueryError):
            ChaseEngine([], max_depth=0)

    def test_multi_column_dependency(self):
        schema = RelationalSchema("s")
        schema.add_table(Table("enrol", ["sid", "cid"], ["sid", "cid"]))
        schema.add_table(
            Table("offering", ["student", "course", "term"], ["student", "course"])
        )
        schema.add_ric(
            ReferentialConstraint.parse(
                "enrol.sid, enrol.cid -> offering.student, offering.course"
            )
        )
        engine = ChaseEngine(dependencies(schema))
        atoms = engine.chase([table_seed_atom(schema, "enrol")])
        offering = next(a for a in atoms if a.predicate == "offering")
        enrol = next(a for a in atoms if a.predicate == "enrol")
        assert offering.terms[0] == enrol.terms[0]
        assert offering.terms[1] == enrol.terms[1]
        assert isinstance(offering.terms[2], Variable)


class TestDepthCap:
    """A chase stopped at ``max_depth`` with work left is counted."""

    @staticmethod
    def _depth_hits(run):
        with perf_counters.scope() as frame:
            run()
        return frame.snapshot().get("chase_depth_hits", 0)

    def test_cyclic_schema_at_depth_one_is_counted(self):
        schema = RelationalSchema("s")
        schema.add_table(Table("a", ["aid", "b_ref"], ["aid"]))
        schema.add_table(Table("b", ["bid", "a_ref"], ["bid"]))
        schema.add_ric(ReferentialConstraint.parse("a.b_ref -> b.bid"))
        schema.add_ric(ReferentialConstraint.parse("b.a_ref -> a.aid"))
        engine = ChaseEngine(dependencies(schema), max_depth=1)
        hits = self._depth_hits(
            lambda: engine.chase([table_seed_atom(schema, "a")])
        )
        assert hits >= 1

    def test_a_finished_atom_at_the_cap_is_not_counted(self):
        schema = bookstore_schema()
        engine = ChaseEngine(dependencies(schema), max_depth=1)
        atoms = []
        hits = self._depth_hits(
            lambda: atoms.extend(
                engine.chase([table_seed_atom(schema, "writes")])
            )
        )
        assert sorted(a.predicate for a in atoms) == [
            "book", "person", "writes"
        ]
        assert hits == 0

    def test_paper_chases_never_reach_the_cap(self, monkeypatch):
        """The gold mappings' constraint closures and every dataset
        pair's logical relations chase to their fixpoint."""
        chases = []
        real_chase = ChaseEngine.chase

        def counted(engine, *args, **kwargs):
            chases.append(engine)
            return real_chase(engine, *args, **kwargs)

        def run_all_chases():
            for name in dataset_names():
                pair = load_dataset(name)
                for side in (pair.source.schema, pair.target.schema):
                    compute_logical_relations(side)
                for case in pair.cases:
                    for gold in case.benchmark:
                        constraint_closure(
                            gold.source_query, pair.source.schema
                        )
                        constraint_closure(
                            gold.target_query, pair.target.schema
                        )

        monkeypatch.setattr(ChaseEngine, "chase", counted)
        hits = self._depth_hits(run_all_chases)
        assert len(chases) > 100
        assert hits == 0
