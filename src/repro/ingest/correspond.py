"""Seed attribute correspondences between two introspected schemas.

The paper treats correspondences as an *input* produced by a matching
tool; ingestion needs them before discovery can run. This module layers
three policies over the library's baseline matcher
(:func:`repro.matching.suggest_correspondences`):

* **Semantic matching through the shared CM.** Both sides were
  recovered against the *same* conceptual model, so rather than only
  comparing raw column names the matcher sees each column's CM
  attribute — ``person.pname`` matches ``hasbooksoldat.aname`` when
  both realize a ``name``-like attribute of the same class family.
* **Type-category penalty.** Each backend maps its dialect's declared
  types into the shared category lattice
  (:data:`repro.ingest.backends.TYPE_CATEGORIES`); suggestions whose
  source and target categories disagree (numeric vs text etc.) are
  penalized — a weak signal, but cheap and real, and comparable across
  dialects (SQLite ``TEXT`` vs Postgres ``character varying`` agree).
* **Value-overlap boost/penalty.** When sampled column values are
  available, the Jaccard overlap of the two columns' distinct values
  scales the score: disjoint value sets are a strong hint the columns
  mean different things even when their names rhyme.

An explicit user-supplied correspondence file (one ``table.col <->
table.col`` per line, ``#`` comments) replaces matcher output entirely
— matcher suggestions are a bootstrap, not an authority.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.correspondences import Correspondence, CorrespondenceSet
from repro.exceptions import IngestError
from repro.ingest.backends import type_affinity
from repro.matching import (
    MatchSuggestion,
    as_correspondence_set,
    suggest_correspondences,
)
from repro.semantics.lav import SchemaSemantics

__all__ = [
    "MIN_VALUE_SAMPLE",
    "TYPE_MISMATCH_PENALTY",
    "VALUE_OVERLAP_WEIGHT",
    "parse_correspondence_lines",
    "seed_correspondences",
    "type_affinity",
    "value_jaccard",
]

#: Score multiplier when the two sides' type categories differ
#: (numeric vs text etc.) — a soft penalty, not a veto.
TYPE_MISMATCH_PENALTY = 0.85

#: How much of the score rides on value overlap when samples exist:
#: the multiplier is ``1 - WEIGHT * (1 - jaccard)``, so fully disjoint
#: value sets cost 30% and identical sets cost nothing.
VALUE_OVERLAP_WEIGHT = 0.3

#: Both columns must have at least this many distinct sampled values
#: before overlap says anything — tiny samples overlap by accident.
MIN_VALUE_SAMPLE = 3


def _category(
    table: str,
    column: str,
    declared: str,
    categories: Mapping[str, Mapping[str, str]],
) -> str:
    """The column's backend type category (affinity when unmapped)."""
    mapped = categories.get(table, {}).get(column)
    return mapped if mapped is not None else type_affinity(declared)


def _apply_type_penalty(
    suggestions: Iterable[MatchSuggestion],
    source_types: Mapping[str, Mapping[str, str]],
    target_types: Mapping[str, Mapping[str, str]],
    source_categories: Mapping[str, Mapping[str, str]],
    target_categories: Mapping[str, Mapping[str, str]],
) -> list[MatchSuggestion]:
    adjusted = []
    for suggestion in suggestions:
        correspondence = suggestion.correspondence
        source_declared = source_types.get(
            correspondence.source.table, {}
        ).get(correspondence.source.name, "")
        target_declared = target_types.get(
            correspondence.target.table, {}
        ).get(correspondence.target.name, "")
        if (
            source_declared
            and target_declared
            and _category(
                correspondence.source.table,
                correspondence.source.name,
                source_declared,
                source_categories,
            )
            != _category(
                correspondence.target.table,
                correspondence.target.name,
                target_declared,
                target_categories,
            )
        ):
            suggestion = MatchSuggestion(
                suggestion.score * TYPE_MISMATCH_PENALTY,
                correspondence,
                f"{suggestion.reason}; type category mismatch "
                f"({source_declared} vs {target_declared})",
            )
        adjusted.append(suggestion)
    return adjusted


def _normalize_value(value: object) -> str:
    """One comparable spelling per value across backends.

    SQLite hands back typed values; the dump backend parses text. An
    integer-valued float and its int (``1.0`` vs ``1``) normalize the
    same way, and text comparison is case-insensitive.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return str(value).strip().lower()


def _distinct_values(
    table: str,
    column: str,
    values: Mapping[str, Mapping[str, Sequence[object]]],
) -> frozenset[str]:
    sampled = values.get(table, {}).get(column, ())
    return frozenset(
        _normalize_value(value) for value in sampled if value is not None
    )


def value_jaccard(
    source_values: Iterable[object], target_values: Iterable[object]
) -> float:
    """Jaccard overlap of two columns' distinct non-null values."""
    source_set = frozenset(
        _normalize_value(v) for v in source_values if v is not None
    )
    target_set = frozenset(
        _normalize_value(v) for v in target_values if v is not None
    )
    union = source_set | target_set
    if not union:
        return 0.0
    return len(source_set & target_set) / len(union)


def _apply_value_overlap(
    suggestions: Iterable[MatchSuggestion],
    source_values: Mapping[str, Mapping[str, Sequence[object]]],
    target_values: Mapping[str, Mapping[str, Sequence[object]]],
) -> list[MatchSuggestion]:
    adjusted = []
    for suggestion in suggestions:
        correspondence = suggestion.correspondence
        source_set = _distinct_values(
            correspondence.source.table,
            correspondence.source.name,
            source_values,
        )
        target_set = _distinct_values(
            correspondence.target.table,
            correspondence.target.name,
            target_values,
        )
        if (
            len(source_set) >= MIN_VALUE_SAMPLE
            and len(target_set) >= MIN_VALUE_SAMPLE
        ):
            jaccard = value_jaccard(source_set, target_set)
            multiplier = 1.0 - VALUE_OVERLAP_WEIGHT * (1.0 - jaccard)
            suggestion = MatchSuggestion(
                suggestion.score * multiplier,
                correspondence,
                f"{suggestion.reason}; value overlap {jaccard:.2f}",
            )
        adjusted.append(suggestion)
    return adjusted


def seed_correspondences(
    source: SchemaSemantics,
    target: SchemaSemantics,
    source_types: Mapping[str, Mapping[str, str]] | None = None,
    target_types: Mapping[str, Mapping[str, str]] | None = None,
    synonyms: Mapping[str, str] | None = None,
    threshold: float = 0.75,
    *,
    source_categories: Mapping[str, Mapping[str, str]] | None = None,
    target_categories: Mapping[str, Mapping[str, str]] | None = None,
    source_values: Mapping[str, Mapping[str, Sequence[object]]]
    | None = None,
    target_values: Mapping[str, Mapping[str, Sequence[object]]]
    | None = None,
) -> list[MatchSuggestion]:
    """Scored correspondence suggestions between two recovered sides.

    Matching runs over the :class:`SchemaSemantics` (so CM attribute
    names participate); then type-category mismatches are penalized by
    :data:`TYPE_MISMATCH_PENALTY` (categories come from the backends'
    ``type_category`` maps, falling back to SQLite affinity of the
    declared type); then, when ``source_values``/``target_values``
    carry sampled column data, value overlap rescales each score by
    ``1 - VALUE_OVERLAP_WEIGHT * (1 - jaccard)``. The list is re-ranked
    and suggestions falling below ``threshold`` drop out.
    """
    suggestions = suggest_correspondences(
        source, target, synonyms=synonyms, threshold=threshold
    )
    adjusted = _apply_type_penalty(
        suggestions,
        source_types or {},
        target_types or {},
        source_categories or {},
        target_categories or {},
    )
    if source_values or target_values:
        adjusted = _apply_value_overlap(
            adjusted, source_values or {}, target_values or {}
        )
    adjusted.sort(key=lambda s: (-s.score, str(s)))
    return [s for s in adjusted if s.score >= threshold]


def parse_correspondence_lines(
    lines: Iterable[str],
) -> CorrespondenceSet:
    """Parse an explicit correspondence file's lines.

    One ``source_table.col <-> target_table.col`` per line; blank lines
    and ``#`` comments are ignored. Malformed lines raise
    :class:`IngestError` naming the offending line.
    """
    correspondences: list[Correspondence] = []
    for number, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            correspondences.append(Correspondence.parse(text))
        except Exception as error:
            raise IngestError(
                f"correspondence file line {number}: {error}"
            ) from error
    return CorrespondenceSet(correspondences)
