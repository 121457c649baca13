"""Relational substrate: schemas, constraints, instances, and algebra.

This package models the *logical* (database) level of the paper: relational
schemas with primary keys and referential integrity constraints (RICs), plus
an in-memory instance store and a relational algebra evaluator used to
execute discovered mapping expressions.
"""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.relational.constraints": ("ReferentialConstraint",),
        "repro.relational.schema": ("Column", "RelationalSchema", "Table"),
        "repro.relational.instance": ("Instance", "LabeledNull"),
        "repro.relational.ddl": ("emit_ddl", "emit_table_ddl"),
        "repro.relational.algebra": (
            "AlgebraExpression",
            "BaseRelation",
            "NaturalJoin",
            "Projection",
            "Rename",
            "Selection",
        ),
    },
)
