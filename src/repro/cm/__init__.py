"""Conceptual-model substrate: CML, CM graphs, reasoning."""

from repro import _lazy_package

__all__ = _lazy_package(
    __name__,
    {
        "repro.cm.cardinality": (
            "MANY",
            "Cardinality",
            "ConnectionCategory",
            "categories_compatible",
        ),
        "repro.cm.model": (
            "CMClass",
            "ConceptualModel",
            "ISA_LABEL",
            "Relationship",
            "SemanticType",
        ),
        "repro.cm.graph": (
            "CMEdge",
            "CMGraph",
            "INVERSE_MARK",
            "attribute_node_id",
        ),
        "repro.cm.reasoner": ("CMReasoner",),
        "repro.cm.dot": ("cm_graph_to_dot",),
        "repro.cm.serialize": ("model_from_dict", "model_to_dict"),
    },
)
