"""The one options object every discovery entry point accepts.

Library calls (``SemanticMapper(options=...)``), batch
:class:`~repro.discovery.batch.Scenario` specs, the service wire format
and the CLI all pass their knobs through :class:`DiscoveryOptions`;
there is no other way to set them (``docs/api.md`` lists the removed
per-knob spellings and their replacements).

The frozen dataclass is hashable and picklable, so it travels inside
batch :class:`~repro.discovery.batch.Scenario` specs across process
pools unchanged. :meth:`DiscoveryOptions.to_pairs` serialises only the
fields that differ from the defaults — a scenario built with default
options therefore fingerprints identically to one built before this
class existed, keeping the service's content-addressed result cache
warm across the API change.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

#: The engines :class:`DiscoveryOptions.engine` may select.
ENGINE_NAMES = ("semantic", "clio")


@dataclass(frozen=True)
class DiscoveryOptions:
    """Every tuning knob of one discovery run.

    Parameters
    ----------
    max_path_edges:
        Length cap for the Section 3.3 lossy-path search.
    use_partof_filter / use_disjointness_filter / use_cardinality_filter:
        Ablation switches for the semantic-compatibility checks of
        Sections 3.2–3.3 (``tests/discovery/test_ablation_flags.py``
        shows what each one removes).
    explain:
        Record structured prune events and per-candidate rank provenance
        on the result (implies ``trace``); see ``repro.trace``.
    trace:
        Record a span tree of per-phase wall times on the result without
        the explain provenance.
    engine:
        Which discovery engine runs: ``"semantic"`` (the paper's staged
        pipeline, the default) or ``"clio"`` (the schema-only RIC
        baseline adapted behind the same entry points; see
        ``repro.discovery.engine.clio``).
    cache_dir:
        Directory of the persistent, cross-process stage-artifact store
        (see :mod:`repro.discovery.engine.persist`). ``None`` (the
        default) keeps whatever the process configured
        (``persist.configure`` / ``REPRO_CACHE_DIR``); a path activates
        the disk tier for this run. Deployment-local and output-neutral:
        it never appears in content fingerprints or :meth:`to_pairs`,
        so the same scenario keys identically with or without it.
    """

    max_path_edges: int = 6
    use_partof_filter: bool = True
    use_disjointness_filter: bool = True
    use_cardinality_filter: bool = True
    explain: bool = False
    trace: bool = False
    engine: str = "semantic"
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_path_edges, int) or isinstance(
            self.max_path_edges, bool
        ):
            raise ValueError(
                f"max_path_edges must be an int, got "
                f"{type(self.max_path_edges).__name__}"
            )
        if self.max_path_edges < 1:
            raise ValueError(
                f"max_path_edges must be >= 1, got {self.max_path_edges}"
            )
        for name in (
            "use_partof_filter",
            "use_disjointness_filter",
            "use_cardinality_filter",
            "explain",
            "trace",
        ):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(
                    f"{name} must be a bool, got {type(value).__name__}"
                )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"engine must be one of {sorted(ENGINE_NAMES)}, got "
                f"{self.engine!r}"
            )
        if self.cache_dir is not None and (
            not isinstance(self.cache_dir, str) or not self.cache_dir
        ):
            raise ValueError(
                f"cache_dir must be a non-empty string or None, got "
                f"{self.cache_dir!r}"
            )

    # -- construction ----------------------------------------------------
    def replace(self, **changes: Any) -> "DiscoveryOptions":
        """A copy with ``changes`` applied (validated like ``__init__``)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Any], where: str = "options"
    ) -> "DiscoveryOptions":
        """Build from a JSON-style dict; unknown keys raise ``ValueError``."""
        if not isinstance(mapping, Mapping):
            raise ValueError(
                f"{where} must be an object, got {type(mapping).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(
                f"unknown {where} key(s) {unknown}; known: {sorted(known)}"
            )
        return cls(**dict(mapping))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, Any]]
    ) -> "DiscoveryOptions":
        """Rebuild from :meth:`to_pairs` output."""
        return cls.from_mapping(dict(pairs), where="option pairs")

    # -- serialisation ---------------------------------------------------
    def to_pairs(self) -> tuple[tuple[str, Any], ...]:
        """Non-default fields as sorted pairs (the Scenario storage form).

        Default options serialise to ``()`` — byte-identical to the
        pre-``DiscoveryOptions`` empty ``mapper_options`` tuple, so
        content fingerprints (and the service result cache keyed on
        them) survive the API migration. ``cache_dir`` is always
        omitted: it is a deployment-local, output-neutral knob, and a
        filesystem path must never leak into content fingerprints (two
        hosts caching in different directories still share results).
        """
        defaults = _DEFAULTS
        return tuple(
            sorted(
                (field.name, getattr(self, field.name))
                for field in dataclasses.fields(self)
                if field.name != "cache_dir"
                and getattr(self, field.name)
                != getattr(defaults, field.name)
            )
        )

    def to_dict(self) -> dict[str, Any]:
        """Every field, JSON-friendly (wire and report payloads)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    # -- behaviour queries -----------------------------------------------
    @property
    def wants_trace(self) -> bool:
        """True when this run should record spans (explain implies trace)."""
        return self.trace or self.explain


_DEFAULTS = DiscoveryOptions()

#: The default options singleton (shared; the class is immutable).
DEFAULT_OPTIONS = _DEFAULTS
