"""Content fingerprints for discovery inputs and pipeline stages.

Every cache in the discovery stack — the service's result cache and
the staged engine's
:class:`~repro.discovery.engine.cache.StageCache` — keys on *content*,
never on object identity: two equal-but-distinct inputs (a dataset
reloaded from disk, a scenario rebuilt from a wire payload) must land on
the same cache entry. This module owns the hashing conventions:

* :func:`semantics_content_key` — one :class:`SchemaSemantics`' full
  content (schema, conceptual model, s-trees), cached on the object
  because semantics are immutable after construction;
* :func:`scenario_fingerprint` — everything that determines one
  ``scenario.run()`` output (both semantics, the ordered correspondence
  list, the mapper options);
* :func:`csg_structure_key` — one CSG's structure (root, edges, marked
  nodes), the translation-memo key; :func:`csg_content_key` adds its
  origin for the engine;
* :func:`stage_fingerprint` — the per-stage chaining hash of the staged
  engine: a stage's fingerprint covers its name, its upstream stage
  fingerprints, and the options subset it reads, so an edit invalidates
  exactly the stages downstream of the change (see
  ``docs/architecture.md``).

All fingerprints are SHA-256 hex digests over stable ``repr`` text, so
they survive pickling, process boundaries, and interpreter restarts.
"""

from __future__ import annotations

import hashlib
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.discovery.csg import CSG
    from repro.semantics.lav import SchemaSemantics


def content_hash(*parts: Any) -> str:
    """SHA-256 of the stable ``repr`` of ``parts``."""
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def semantics_content_key(semantics: "SchemaSemantics") -> str:
    """A stable fingerprint of a :class:`SchemaSemantics`' full content.

    Keys on this instead of ``id()`` so equal-but-distinct objects (e.g.
    scenarios rebuilt from a dataset loader) share cache entries. The
    fingerprint covers the schema (tables, columns, keys, RICs), the
    conceptual model (cardinalities, ISA, disjointness, semantic types —
    via ``model_to_dict``), and every s-tree; it is cached on the object
    because semantics are immutable after construction.

    The digest is the SHA-256 of ``repr`` of the tuple ``(schema name,
    tables, RICs, model dict, trees)``, but that text is fed to the hash
    piece by piece (one table, one model entry, one s-tree at a time),
    so a wide schema never holds its whole spec string in memory.
    """
    cached = getattr(semantics, "_content_key", None)
    if cached is not None:
        return cached
    from repro.cm.serialize import model_to_dict

    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode("utf-8"))

    schema = semantics.schema
    _feed_repr(
        feed,
        (
            schema.name,
            (
                (table.name, table.columns, table.primary_key)
                for table in schema
            ),
            (str(ric) for ric in schema.rics),
            model_to_dict(semantics.model),
            (
                (name, semantics.tree(name).describe())
                for name in semantics.tables_with_semantics()
            ),
        ),
        # Deep enough to feed one table, model entry or tree at a time.
        depth=3,
    )
    key = digest.hexdigest()
    semantics._content_key = key  # type: ignore[attr-defined]
    return key


def _feed_repr(feed: Callable[[str], None], value: Any, depth: int) -> None:
    """Pass ``repr(value)`` to ``feed`` in pieces.

    Tuples, lists and dicts are split into their items down to ``depth``
    container levels; anything deeper is fed as one ``repr``. A
    generator within ``depth`` stands for the tuple of what it yields,
    so large sequences are produced and hashed one item at a time.
    """
    kind = type(value)
    if depth <= 0 or kind not in (tuple, list, dict, GeneratorType):
        feed(repr(value))
        return
    if kind is dict:
        feed("{")
        for count, (key, item) in enumerate(value.items()):
            feed(f"{', ' if count else ''}{key!r}: ")
            _feed_repr(feed, item, depth - 1)
        feed("}")
        return
    opening, closing = ("[", "]") if kind is list else ("(", ")")
    feed(opening)
    count = 0
    for count, item in enumerate(value, 1):
        if count > 1:
            feed(", ")
        _feed_repr(feed, item, depth - 1)
    if count == 1 and kind is not list:
        feed(",")  # a one-item tuple prints as ``(x,)``
    feed(closing)


def discovery_fingerprint(
    source: "SchemaSemantics",
    target: "SchemaSemantics",
    correspondences,
    mapper_options: tuple = (),
) -> str:
    """The scenario content fingerprint, from its loose components.

    :func:`scenario_fingerprint` delegates here; ``SemanticMapper`` uses
    this directly to stamp every :class:`DiscoveryResult` (and the
    :class:`~repro.mappings.expression.MappingSet` it carries) without
    building a :class:`~repro.discovery.batch.Scenario` first.
    """
    spec = repr(
        (
            semantics_content_key(source),
            semantics_content_key(target),
            tuple(str(c) for c in correspondences),
            mapper_options,
        )
    )
    return hashlib.sha256(spec.encode("utf-8")).hexdigest()


def scenario_fingerprint(scenario) -> str:
    """A stable *content* fingerprint of one discovery scenario.

    Covers everything that determines the output of ``scenario.run()`` —
    both schema semantics (via :func:`semantics_content_key`), the
    correspondence list (order-sensitively, matching
    :class:`~repro.correspondences.CorrespondenceSet` semantics), and
    the mapper options — and deliberately excludes ``scenario_id``,
    which is caller-chosen labelling. Two scenarios with equal
    fingerprints produce identical candidates, which is what makes the
    fingerprint safe as a content-addressed cache key (see
    ``repro.service.cache``).
    """
    return discovery_fingerprint(
        scenario.source,
        scenario.target,
        scenario.correspondences,
        scenario.mapper_options,
    )


def csg_structure_key(csg: "CSG") -> tuple:
    """One CSG's structure: root, edges, marked nodes.

    Translation reads nothing else, so the translation memo keys on it.
    """
    return (
        str(csg.tree.root),
        tuple(
            (
                str(edge.parent),
                edge.cm_edge.source,
                edge.cm_edge.label,
                edge.cm_edge.target,
                str(edge.child),
            )
            for edge in csg.tree.edges
        ),
        tuple((name, str(node)) for name, node in csg.marked),
    )


def csg_content_key(csg: "CSG") -> tuple:
    """One CSG's structural identity: its structure key plus ``origin``.

    ``origin`` (Case A.1 / A.2 / lossy / ...) feeds candidate notes and
    ranking and therefore belongs to the engine's unit identity.
    """
    return (*csg_structure_key(csg), csg.origin)


def stage_fingerprint(stage: str, *parts: Any) -> str:
    """The fingerprint of one stage's input: name + upstream + options.

    ``parts`` carries the upstream stage fingerprints and the
    ``(field, value)`` options subset the stage reads; anything *not*
    hashed here (``explain``, ``trace``, cache sizing) must never change
    a stage's output.
    """
    return content_hash(stage, *parts)
