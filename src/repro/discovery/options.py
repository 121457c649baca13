"""The one options object every discovery entry point accepts.

Before this module existed, four entry points each re-plumbed the same
tuning knobs: ``SemanticMapper(**kwargs)``, ``batch.Scenario``'s
``mapper_options`` pairs, the service's hand-rolled ``_mapper_options``
dict, and CLI flags. :class:`DiscoveryOptions` is now the single source
of truth; the old keyword spellings keep working everywhere through
:func:`merge_legacy_kwargs`, which emits a :class:`DeprecationWarning`
(see ``docs/api.md`` for the deprecation policy).

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
import warnings
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

#: Legacy ``SemanticMapper`` keyword names, all absorbed by
#: :class:`DiscoveryOptions` (new code passes ``options=`` instead).
LEGACY_OPTION_NAMES = (
    "max_path_edges",
    "use_partof_filter",
    "use_disjointness_filter",
    "use_cardinality_filter",
)

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
        Sections 3.2–3.3 (see ``benchmarks/benchmark_ablation.py``).
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
    profile_cache_size / translation_cache_size / stage_cache_size:
        Per-run overrides for the perf layer's memo-cache entry bounds
        (``None`` keeps the module defaults in
        ``repro.perf.config.DEFAULT_CACHE_SIZES``). ``stage_cache_size=0``
        disables the staged engine's artifact cache for the run. These
        knobs — like ``explain``/``trace`` — never change discovery
        output, so stage fingerprints deliberately exclude them.
    distance_oracle:
        Whether the run uses oracle-guided search (backward distance
        tables, A*-pruned Steiner expansion, lossy lower bounds; see
        ``docs/performance.md``). Both settings produce identical
        output — the oracle only prunes provably fruitless work — so
        this is an equivalence-testing and profiling switch, on by
        default.
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
    profile_cache_size: int | None = None
    translation_cache_size: int | None = None
    stage_cache_size: int | None = None
    distance_oracle: bool = True
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
            "distance_oracle",
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
        for name, minimum in (
            ("profile_cache_size", 1),
            ("translation_cache_size", 1),
            ("stage_cache_size", 0),
        ):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(
                    f"{name} must be an int or None, got "
                    f"{type(value).__name__}"
                )
            if value < minimum:
                raise ValueError(
                    f"{name} must be >= {minimum}, got {value}"
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
        """Rebuild from :meth:`to_pairs` output (or legacy option pairs)."""
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

    def cache_size_overrides(self) -> dict[str, int]:
        """The non-default cache bounds of this run, by perf cache name.

        The keys match :data:`repro.perf.config.DEFAULT_CACHE_SIZES`;
        ``SemanticMapper.discover`` installs them for the run's dynamic
        extent via :func:`repro.perf.config.cache_size_overrides`.
        """
        sizes = {
            "profile": self.profile_cache_size,
            "translation": self.translation_cache_size,
            "stage": self.stage_cache_size,
        }
        return {name: size for name, size in sizes.items() if size is not None}


_DEFAULTS = DiscoveryOptions()

#: The default options singleton (shared; the class is immutable).
DEFAULT_OPTIONS = _DEFAULTS


def merge_legacy_kwargs(
    options: DiscoveryOptions | None,
    kwargs: Mapping[str, Any],
    caller: str,
    stacklevel: int = 3,
) -> DiscoveryOptions:
    """Fold deprecated per-knob keyword arguments into an options object.

    Accepts exactly the :data:`LEGACY_OPTION_NAMES` (plus ``explain`` /
    ``trace`` for forward-compatible keyword use); any use emits a
    :class:`DeprecationWarning` naming the caller and the replacement.
    Passing both ``options`` and a legacy kwarg that it also sets is an
    error — the call would be ambiguous.
    """
    if not kwargs:
        return options if options is not None else DEFAULT_OPTIONS
    known = {field.name for field in dataclasses.fields(DiscoveryOptions)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise TypeError(
            f"{caller} got unexpected keyword argument(s) {unknown}; "
            f"known options: {sorted(known)}"
        )
    warnings.warn(
        f"passing {sorted(kwargs)} to {caller} as keyword arguments is "
        f"deprecated; pass options=DiscoveryOptions(...) instead",
        DeprecationWarning,
        stacklevel=stacklevel,
    )
    if options is None:
        return DiscoveryOptions(**dict(kwargs))
    conflicting = sorted(
        name for name in kwargs if kwargs[name] != getattr(options, name)
    )
    if conflicting:
        raise TypeError(
            f"{caller} got both options= and conflicting legacy "
            f"keyword(s) {conflicting}"
        )
    return options
