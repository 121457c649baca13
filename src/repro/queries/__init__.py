"""Query machinery: conjunctive queries, containment, chase, rewriting."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.queries.conjunctive": (
            "Atom",
            "CM_PREFIX",
            "ConjunctiveQuery",
            "Constant",
            "DB_PREFIX",
            "SkolemTerm",
            "Term",
            "Variable",
            "_VariableFactory as VariableFactory",
            "cm_atom",
            "db_atom",
            "substitute_atom",
            "substitute_term",
            "unify_atoms",
            "unify_terms",
        ),
        "repro.queries.homomorphism": (
            "are_equivalent",
            "containment_mapping",
            "is_contained_in",
            "keep_maximal",
            "minimize",
        ),
        "repro.queries.chase": (
            "ChaseEngine",
            "InclusionDependency",
            "table_seed_atom",
        ),
        "repro.queries.datalog": ("evaluate_query",),
        "repro.queries.rewrite": (
            "InverseRule",
            "LAVView",
            "inverse_rules",
            "rewrite_query",
            "skolem_function_name",
        ),
    },
)
