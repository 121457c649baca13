"""Translating CSGs into relational expressions (Section 3.4).

A discovered CSG, together with the correspondences it covers, is first
encoded as a conjunctive query over CM predicates (the encoding algorithm
of Section 2, plus key-merging), then rewritten over the schema's LAV
table semantics into table-level queries. Correspondence ``i`` exports the
shared distinguished variable ``v{i}`` on both sides, so the source and
target queries of a mapping candidate align positionally.
"""

from __future__ import annotations

import weakref
from typing import Sequence

from repro.correspondences import LiftedCorrespondence
from repro.discovery.csg import CSG
from repro.discovery.fingerprint import csg_structure_key
from repro.exceptions import DiscoveryError
from repro.perf import counters as perf_counters
from repro.queries.conjunctive import ConjunctiveQuery, Term
from repro.queries.rewrite import rewrite_query
from repro.semantics.encoder import apply_key_merge, encode_tree
from repro.semantics.lav import SchemaSemantics
from repro.semantics.stree import SemanticTree


def correspondence_variable(index: int) -> str:
    """The shared distinguished variable name of correspondence ``index``."""
    return f"v{index + 1}"


def csg_to_cm_query(
    csg: CSG,
    covered: Sequence[LiftedCorrespondence],
    side: str,
    semantics: SchemaSemantics,
) -> ConjunctiveQuery:
    """Encode a CSG and its covered correspondences as a CM-level query.

    The head exports one term per covered correspondence, in order;
    correspondences sharing an attribute node share a variable.
    """
    if side not in ("source", "target"):
        raise DiscoveryError(f"side must be 'source' or 'target': {side!r}")
    marked = csg.marked_map()
    column_map: dict[str, tuple] = {}
    attribute_to_column: dict[tuple, str] = {}
    head_column_names: list[str] = []
    for index, item in enumerate(covered):
        cls = item.source_class if side == "source" else item.target_class
        attribute = (
            item.source_attribute if side == "source" else item.target_attribute
        )
        if cls not in marked:
            raise DiscoveryError(
                f"correspondence {item.correspondence} covers class "
                f"{cls!r} absent from {csg}"
            )
        node = marked[cls]
        key = (node, attribute)
        if key in attribute_to_column:
            head_column_names.append(attribute_to_column[key])
            continue
        name = correspondence_variable(index)
        attribute_to_column[key] = name
        column_map[name] = key
        head_column_names.append(name)
    tree = SemanticTree(csg.tree.root, csg.tree.edges, column_map)
    encoded = apply_key_merge(
        encode_tree(tree, semantics.model), tree, semantics.model
    )
    head_terms: list[Term] = [
        encoded.column_variables[name] for name in head_column_names
    ]
    return ConjunctiveQuery(head_terms, encoded.atoms, name="ans")


#: Translation memo, weakly keyed by the semantics object (the values
#: never reference it, so entries die exactly when the semantics does).
#: The inner key freezes everything ``csg_to_cm_query`` + rewriting read:
#: the CSG's tree structure, marked nodes, the covered correspondences,
#: the side, and the required-tables flag. Unbounded: each store lives
#: exactly as long as its semantics.
_TRANSLATION_CACHE: "weakref.WeakKeyDictionary[SchemaSemantics, dict]" = (
    weakref.WeakKeyDictionary()
)


def clear_translation_cache() -> None:
    _TRANSLATION_CACHE.clear()


def translate_csg(
    csg: CSG,
    covered: Sequence[LiftedCorrespondence],
    side: str,
    semantics: SchemaSemantics,
    require_correspondence_tables: bool = True,
) -> list[ConjunctiveQuery]:
    """CSG → table-level queries via LAV rewriting (memoized).

    Per the paper, surviving rewritings must mention the tables whose
    columns are linked by the covered correspondences; containment-
    redundant rewritings are pruned inside :func:`rewrite_query`.
    Rewriting is deterministic and by far the most expensive step of
    candidate emission, so results are memoized per semantics object —
    repeated discovery over the same schema pair (batch runs, warm
    re-runs) skips it entirely.
    """
    store = _TRANSLATION_CACHE.get(semantics)
    if store is None:
        store = {}
        _TRANSLATION_CACHE[semantics] = store
    key = (
        side,
        bool(require_correspondence_tables),
        csg_structure_key(csg),
        tuple(covered),
    )
    hit = store.get(key)
    if hit is not None:
        perf_counters.record("translate_cache_hits")
        return list(hit)
    perf_counters.record("translate_cache_misses")
    queries = _translate_uncached(
        csg, covered, side, semantics, require_correspondence_tables
    )
    store[key] = tuple(queries)
    return queries


def _translate_uncached(
    csg: CSG,
    covered: Sequence[LiftedCorrespondence],
    side: str,
    semantics: SchemaSemantics,
    require_correspondence_tables: bool,
) -> list[ConjunctiveQuery]:
    cm_query = csg_to_cm_query(csg, covered, side, semantics)
    required: set[str] = set()
    if require_correspondence_tables:
        for item in covered:
            column = (
                item.correspondence.source
                if side == "source"
                else item.correspondence.target
            )
            required.add(column.table)
    return rewrite_query(
        cm_query,
        semantics,
        required_tables=required,
        key_positions=semantics.key_positions(),
    )
