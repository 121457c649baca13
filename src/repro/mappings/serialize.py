"""JSON (de)serialization of mapping sets in the ``repro-mappings/1`` format.

Discovered mappings are artifacts users keep: this module round-trips a
:class:`~repro.mappings.expression.MappingSet` through a stable,
human-diffable JSON shape, so mapping sets can be versioned next to the
schemas they map. The set's provenance (scenario fingerprint and id) is
carried as optional top-level keys — documents written before the
:class:`MappingSet` API, and sets without provenance, serialize
byte-identically to the original candidate-list format.

Only table-level candidates serialize (variables and constants in the
queries); Skolem terms never appear in finished candidates.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from repro.correspondences import Correspondence
from repro.exceptions import QueryError
from repro.mappings.expression import MappingCandidate, MappingSet
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Term,
    Variable,
)

#: Format marker written into every document.
FORMAT = "repro-mappings/1"


def _term_to_json(term: Term) -> Any:
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, Constant):
        return {"const": term.value}
    raise QueryError(f"cannot serialize term {term}")


def _term_from_json(data: Any) -> Term:
    if "var" in data:
        return Variable(data["var"])
    if "const" in data:
        return Constant(data["const"])
    raise QueryError(f"cannot deserialize term {data!r}")


def _query_to_json(query: ConjunctiveQuery) -> dict:
    return {
        "name": query.name,
        "head": [_term_to_json(t) for t in query.head_terms],
        "body": [
            {
                "predicate": atom.predicate,
                "terms": [_term_to_json(t) for t in atom.terms],
            }
            for atom in query.body
        ],
    }


def _query_from_json(data: dict) -> ConjunctiveQuery:
    return ConjunctiveQuery(
        [_term_from_json(t) for t in data["head"]],
        [
            Atom(
                atom["predicate"],
                [_term_from_json(t) for t in atom["terms"]],
            )
            for atom in data["body"]
        ],
        data.get("name", "ans"),
    )


def candidate_to_dict(candidate: MappingCandidate) -> dict:
    """One candidate as a JSON-ready dictionary."""
    return {
        "source": _query_to_json(candidate.source_query),
        "target": _query_to_json(candidate.target_query),
        "covered": [str(c) for c in candidate.covered],
        "method": candidate.method,
        "notes": candidate.notes,
        "source_optional_tables": sorted(candidate.source_optional_tables),
    }


def candidate_from_dict(data: dict) -> MappingCandidate:
    return MappingCandidate(
        source_query=_query_from_json(data["source"]),
        target_query=_query_from_json(data["target"]),
        covered=tuple(
            Correspondence.parse(text) for text in data["covered"]
        ),
        method=data.get("method", "semantic"),
        notes=data.get("notes", ""),
        source_optional_tables=frozenset(
            data.get("source_optional_tables", ())
        ),
    )


def mapping_set_to_dict(mapping: MappingSet) -> dict:
    """A :class:`MappingSet` as a JSON-ready ``repro-mappings/1`` document.

    Provenance keys are omitted when unset, so a bare set of candidates
    produces exactly the pre-``MappingSet`` document shape (and bytes).
    """
    document: dict = {
        "format": FORMAT,
        "candidates": [candidate_to_dict(c) for c in mapping.candidates],
    }
    if mapping.fingerprint is not None:
        document["fingerprint"] = mapping.fingerprint
    if mapping.scenario_id is not None:
        document["scenario_id"] = mapping.scenario_id
    return document


def mapping_set_from_dict(document: dict) -> MappingSet:
    """Parse a ``repro-mappings/1`` document dictionary."""
    if document.get("format") != FORMAT:
        raise QueryError(
            f"unsupported mapping document format: {document.get('format')!r}"
        )
    return MappingSet(
        candidates=tuple(
            candidate_from_dict(entry) for entry in document["candidates"]
        ),
        fingerprint=document.get("fingerprint"),
        scenario_id=document.get("scenario_id"),
    )


def dump_mapping_set(
    mapping: MappingSet | Sequence[MappingCandidate],
    indent: int | None = 2,
) -> str:
    """Serialize a mapping set to JSON text."""
    return json.dumps(
        mapping_set_to_dict(MappingSet.of(mapping)),
        indent=indent,
        sort_keys=True,
    )


def load_mapping_set(text: str) -> MappingSet:
    """Parse JSON text produced by :func:`dump_mapping_set`."""
    return mapping_set_from_dict(json.loads(text))
