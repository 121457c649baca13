"""Table semantics: s-trees, the encoding algorithm, LAV views, er2rel."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.semantics.stree": (
            "COPY_MARK",
            "STreeEdge",
            "STreeNode",
            "SemanticTree",
        ),
        "repro.semantics.encoder": (
            "EncodedTree",
            "apply_key_merge",
            "column_variable",
            "effective_key",
            "encode_and_merge",
            "encode_tree",
            "identity_skolem",
            "object_variable",
        ),
        "repro.semantics.lav": ("SchemaSemantics",),
        "repro.semantics.recover": (
            "RecoveryReport",
            "SemanticsRecoverer",
            "recover_semantics",
        ),
        "repro.semantics.er2rel": (
            "Er2RelDesigner",
            "Er2RelResult",
            "design_schema",
            "table_name_for",
        ),
    },
)
