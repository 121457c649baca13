"""repro — semantic schema-mapping discovery.

A from-scratch reproduction of *"A Semantic Approach to Discovering
Schema Mapping Expressions"* (An, Borgida, Miller, Mylopoulos — ICDE
2007): given a source and a target relational schema, a conceptual model
with table semantics for each, and simple column correspondences, the
library discovers GLAV schema mappings (source-to-target tgds), compares
them against the Clio-style RIC-based baseline, and reruns the paper's
whole evaluation.

Typical usage::

    from repro import (
        ConceptualModel, CorrespondenceSet, design_schema, discover_mappings,
    )

    cm = ConceptualModel("books")
    cm.add_class("Person", attributes=["pname"], key=["pname"])
    ...
    source = design_schema(cm, "source")
    target = design_schema(other_cm, "target")
    corrs = CorrespondenceSet.parse(["person.pname <-> author.aname"])
    result = discover_mappings(source.semantics, target.semantics, corrs)
    print(result.best().to_tgd("M"))

Tuning and observability live on one frozen options object::

    from repro import DiscoveryOptions, Scenario, discover

    options = DiscoveryOptions(explain=True)
    result = discover(
        Scenario.create("case-1", source, target, corrs), options=options
    )
    for event in result.trace["prunes"]:
        print(event["rule"], event["detail"])

Every public name resolves on first use: ``import repro`` loads no
other ``repro`` module, and ``repro.X`` (or ``from repro import X``)
imports only the module that defines ``X``. The subpackages re-export
their names the same way, through :func:`_lazy_package`.

See ``docs/api.md`` for the public-API map and ``docs/observability.md``
for tracing/explain.
"""

from __future__ import annotations

import importlib
import sys
import types

__version__ = "0.1.0"


class _LazyPackage(types.ModuleType):
    """A package whose re-exported names import their module on first use."""

    def __getattr__(self, name):
        try:
            module, attr = self._exports[name]
        except KeyError:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attr)
        self.__dict__[name] = value
        return value

    def __dir__(self):
        return sorted({*self.__dict__, *self._exports})

    def __setattr__(self, name, value):
        # Importing a submodule binds it on its package. A submodule
        # named like an export must not shadow it: ``repro.mappings.
        # exchange`` stays the function in every import order.
        if name in self._exports and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


def _lazy_package(name: str, table: dict[str, tuple[str, ...]]) -> list[str]:
    """Make package ``name`` resolve its re-exported names on first use.

    ``table`` maps each defining module to the names the package
    re-exports from it, ``"attr as alias"`` for a renamed one. Returns
    the exported names, in table order, for ``__all__``. An unknown
    name raises the usual :class:`AttributeError`, so ``hasattr`` and
    ``from package import nope`` behave as for any module.
    """
    exports: dict[str, tuple[str, str]] = {}
    for module, names in table.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            assert (alias or attr) not in exports, entry
            exports[alias or attr] = (module, attr)
    package = sys.modules[name]
    package._exports = exports
    package.__class__ = _LazyPackage
    return list(exports)


def discover(
    scenario: Scenario,
    options: DiscoveryOptions | None = None,
    trace: Tracer | None = None,
) -> DiscoveryResult:
    """Run one :class:`Scenario` and return its :class:`DiscoveryResult`.

    The scenario-first companion to :func:`discover_mappings`:
    ``options`` (when given) replaces the options stored on the
    scenario, and ``trace`` injects a caller-owned
    :class:`~repro.trace.Tracer`. Unlike :func:`discover_many` there is
    no fault isolation — errors propagate to the caller.
    """
    if options is not None:
        from repro.discovery.batch import Scenario

        scenario = Scenario.create(
            scenario.scenario_id,
            scenario.source,
            scenario.target,
            scenario.correspondences,
            options=options,
        )
    return scenario.run(tracer=trace)


__all__ = [
    "__version__",
    "discover",
    *_lazy_package(
        __name__,
        {
            "repro.exceptions": ("ReproError",),
            # Conceptual models
            "repro.cm.cardinality": ("Cardinality", "ConnectionCategory"),
            "repro.cm.graph": ("CMGraph",),
            "repro.cm.reasoner": ("CMReasoner",),
            "repro.cm.model": ("ConceptualModel", "SemanticType"),
            "repro.cm.serialize": ("model_from_dict", "model_to_dict"),
            # Relational
            "repro.relational.schema": ("Column", "RelationalSchema", "Table"),
            "repro.relational.instance": ("Instance",),
            "repro.relational.constraints": ("ReferentialConstraint",),
            # Semantics
            "repro.semantics.lav": ("SchemaSemantics",),
            "repro.semantics.stree": ("SemanticTree",),
            "repro.semantics.er2rel": ("design_schema",),
            "repro.semantics.recover": ("recover_semantics",),
            # Correspondences
            "repro.correspondences": ("Correspondence", "CorrespondenceSet"),
            "repro.matching": (
                "suggest_correspondences",
                "as_correspondence_set",
            ),
            # Discovery
            "repro.discovery.batch": (
                "BatchResult",
                "Scenario",
                "discover_many",
            ),
            "repro.discovery.options": ("DiscoveryOptions",),
            "repro.discovery.mapper": (
                "DiscoveryResult",
                "SemanticMapper",
                "discover_mappings",
            ),
            "repro.discovery.incremental": (
                "Rediscovery",
                "rediscover",
                "rediscover_many",
            ),
            "repro.discovery.engine.stages": ("STAGE_NAMES",),
            "repro.trace.tracer": ("Tracer",),
            # Baseline
            "repro.baseline.clio": ("RICBasedMapper", "discover_ric_mappings"),
            # Mappings
            "repro.mappings.expression": (
                "MappingCandidate",
                "MappingSet",
                "query_to_algebra",
            ),
            "repro.mappings.tgd": ("SourceToTargetTGD",),
            "repro.mappings.exchange": ("exchange",),
            # Lifecycle algebra
            "repro.mappings.algebra": (
                "compose",
                "contains",
                "equivalent",
                "implies",
            ),
        },
    ),
]
