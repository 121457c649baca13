"""Parameterized synthetic conceptual models for scale benchmarking.

The paper's datasets top out at a few dozen classes, which says nothing
about how discovery scales. This module grows three structurally
different CM families to arbitrary size, forward-engineers both sides
through :func:`repro.semantics.design_schema`, and anchors a fixed pair
of correspondences so every size has a discoverable mapping:

* **chain** — an entity chain joined by functional relationships with a
  pendant class per link (the Steiner search's worst case: the marked
  classes sit at the two ends, every pendant is a dead branch);
* **isa_fan** — the same functional backbone where every chain class
  additionally fans out into ISA subclasses (stresses subclass lifting
  and the merged-table semantics);
* **reified_web** — entities joined by *reified many-many*
  relationships (no functional end-to-end path exists, so discovery
  exercises the Section 3.3 lossy-path search; the correspondences are
  anchored two hops apart to stay inside ``max_path_edges``).

The marked classes sit a *fixed* span apart (:data:`MARKED_SPAN` hops)
regardless of model size: the discovered mapping — and therefore the
translation cost — stays constant while the graph grows, so the curve
isolates the search layers (root enumeration, Steiner expansion, lossy
branch-and-bound) that the distance oracle accelerates. A blind search
pays for every extra class; an oracle-guided one proves most of the
graph irrelevant up front.

Everything here is deterministic — sizes map to models, models map to
schemas, no randomness — so the ``bench/`` workloads built on these
families and the digests in ``tests/test_golden.py`` are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cm import ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.semantics import design_schema

#: The family vocabulary, in report order.
FAMILY_NAMES = ("chain", "isa_fan", "reified_web")

#: Subclasses per chain class in the ``isa_fan`` family.
ISA_FAN_WIDTH = 4

#: Hops between the two marked classes, independent of model size.
MARKED_SPAN = 8


def class_count(cm: ConceptualModel) -> int:
    """Number of classes (reified ones included) in ``cm``."""
    return len(cm.class_names())


# ----------------------------------------------------------------------
# Model generators
# ----------------------------------------------------------------------
def chain_model(name: str, length: int) -> ConceptualModel:
    """``C0 →f0→ C1 → ... → Cn`` plus one pendant class per link.

    ``2 * (length + 1)`` classes.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    cm = ConceptualModel(name)
    for index in range(length + 1):
        cm.add_class(
            f"C{index}",
            attributes=[f"k{index}", f"a{index}"],
            key=[f"k{index}"],
        )
        cm.add_class(
            f"P{index}", attributes=[f"pk{index}"], key=[f"pk{index}"]
        )
        cm.add_relationship(
            f"pend{index}", f"C{index}", f"P{index}", "0..1", "0..*"
        )
    for index in range(length):
        cm.add_relationship(
            f"f{index}", f"C{index}", f"C{index + 1}", "1..1", "0..*"
        )
    return cm


def isa_fan_model(
    name: str, length: int, width: int = ISA_FAN_WIDTH
) -> ConceptualModel:
    """A functional chain whose every class fans into ISA subclasses.

    ``(length + 1) * (width + 1)`` classes.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    cm = ConceptualModel(name)
    for index in range(length + 1):
        cm.add_class(
            f"R{index}",
            attributes=[f"k{index}", f"a{index}"],
            key=[f"k{index}"],
        )
        for sub in range(width):
            cm.add_class(f"R{index}S{sub}", attributes=[f"s{index}x{sub}"])
            cm.add_isa(f"R{index}S{sub}", f"R{index}")
    for index in range(length):
        cm.add_relationship(
            f"f{index}", f"R{index}", f"R{index + 1}", "1..1", "0..*"
        )
    return cm


def reified_web_model(name: str, links: int) -> ConceptualModel:
    """Entities joined by reified many-many links: ``E0 –W0– E1 – ...``.

    ``2 * links + 1`` classes. No functional path crosses a link, so
    the marked classes must be bridged by the lossy-path search.
    """
    if links < 2:
        raise ValueError(f"links must be >= 2, got {links}")
    cm = ConceptualModel(name)
    for index in range(links + 1):
        cm.add_class(
            f"E{index}",
            attributes=[f"k{index}", f"a{index}"],
            key=[f"k{index}"],
        )
    for index in range(links):
        cm.add_reified_relationship(
            f"W{index}",
            roles={
                f"w{index}src": f"E{index}",
                f"w{index}tgt": f"E{index + 1}",
            },
            attributes=[f"wa{index}"],
        )
    return cm


# ----------------------------------------------------------------------
# Scenario builders (source semantics, target semantics, correspondences)
# ----------------------------------------------------------------------
def chain_scenario(length: int, span: int | None = None):
    source = design_schema(chain_model("syn_chain_src", length), "src")
    target = design_schema(chain_model("syn_chain_tgt", length), "tgt")
    span = min(length, MARKED_SPAN if span is None else span)
    correspondences = CorrespondenceSet.parse(
        [
            "c0.a0 <-> c0.a0",
            f"c{span}.a{span} <-> c{span}.a{span}",
        ]
    )
    return source.semantics, target.semantics, correspondences


def isa_fan_scenario(
    length: int, width: int = ISA_FAN_WIDTH, span: int | None = None
):
    source = design_schema(isa_fan_model("syn_fan_src", length, width), "src")
    target = design_schema(isa_fan_model("syn_fan_tgt", length, width), "tgt")
    span = min(length, MARKED_SPAN if span is None else span)
    correspondences = CorrespondenceSet.parse(
        [
            "r0.a0 <-> r0.a0",
            f"r{span}.a{span} <-> r{span}.a{span}",
        ]
    )
    return source.semantics, target.semantics, correspondences


def reified_web_scenario(links: int):
    source = design_schema(reified_web_model("syn_web_src", links), "src")
    target = design_schema(reified_web_model("syn_web_tgt", links), "tgt")
    # Two entity hops (four graph edges, within the default
    # ``max_path_edges``): the web beyond is pure search pressure.
    correspondences = CorrespondenceSet.parse(
        ["e0.a0 <-> e0.a0", "e2.a2 <-> e2.a2"]
    )
    return source.semantics, target.semantics, correspondences


# ----------------------------------------------------------------------
# Evolution chains (v1 → v2 → ... version sequences for the algebra)
# ----------------------------------------------------------------------
#: Families usable as evolution chains: each version must expose the
#: *same* table and column names, so one correspondence set anchors
#: every hop and the hop mappings compose without renaming.
EVOLUTION_FAMILIES = ("chain", "isa_fan")


@dataclass(frozen=True)
class EvolutionChain:
    """A schema-version sequence ``V0 → V1 → ... → Vn`` plus anchors.

    Every version is a structurally identical forward-engineered schema
    (same tables, same columns — only the model name differs), so the
    one :attr:`correspondences` set is valid for every hop *and* for the
    direct ``V0 → Vn`` scenario. That makes the chain the controlled
    experiment for :func:`repro.mappings.algebra.compose`: discover each
    hop, compose the per-hop mappings, and the result must be equivalent
    to discovering ``V0 → Vn`` directly.
    """

    chain_id: str
    family: str
    length: int
    span: int
    versions: tuple
    correspondences: CorrespondenceSet

    @property
    def hops(self) -> int:
        return len(self.versions) - 1

    def hop(self, index: int):
        """Hop ``index``'s ``(source, target, correspondences)``."""
        return (
            self.versions[index],
            self.versions[index + 1],
            self.correspondences,
        )

    def direct(self):
        """The end-to-end ``(V0, Vn, correspondences)`` scenario."""
        return self.versions[0], self.versions[-1], self.correspondences


def evolution_chain(
    family: str,
    length: int,
    hops: int = 2,
    span: int | None = None,
    isa_width: int = 2,
) -> EvolutionChain:
    """Build a ``hops + 1``-version evolution chain of one family.

    Deterministic, like everything in this module. ``span`` anchors the
    marked attributes (defaults to the full ``length``, capped at
    :data:`MARKED_SPAN`); ``isa_width`` sizes the ``isa_fan`` family's
    subclass fans.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    span = min(length, MARKED_SPAN if span is None else span)
    if family == "chain":
        models = [
            chain_model(f"evo_chain_v{i}", length) for i in range(hops + 1)
        ]
        anchor = "c"
    elif family == "isa_fan":
        models = [
            isa_fan_model(f"evo_fan_v{i}", length, isa_width)
            for i in range(hops + 1)
        ]
        anchor = "r"
    else:
        raise ValueError(
            f"unknown evolution family {family!r}; known: "
            f"{sorted(EVOLUTION_FAMILIES)}"
        )
    versions = tuple(
        design_schema(model, f"v{i}").semantics
        for i, model in enumerate(models)
    )
    correspondences = CorrespondenceSet.parse(
        [
            f"{anchor}0.a0 <-> {anchor}0.a0",
            f"{anchor}{span}.a{span} <-> {anchor}{span}.a{span}",
        ]
    )
    return EvolutionChain(
        chain_id=f"{family}-L{length}-S{span}-H{hops}",
        family=family,
        length=length,
        span=span,
        versions=versions,
        correspondences=correspondences,
    )


# ----------------------------------------------------------------------
# Size-driven selection
# ----------------------------------------------------------------------
def scale_point(family: str, classes: int):
    """The ``family`` scenario closest to ``classes`` classes per side.

    Returns ``(actual_classes, (source, target, correspondences))``;
    ``actual_classes`` is exact for the generated model, at or below
    the requested budget.
    """
    if family == "chain":
        scenario = chain_scenario(max(1, classes // 2 - 1))
    elif family == "isa_fan":
        scenario = isa_fan_scenario(
            max(1, classes // (ISA_FAN_WIDTH + 1) - 1)
        )
    elif family == "reified_web":
        scenario = reified_web_scenario(max(2, (classes - 1) // 2))
    else:
        raise ValueError(
            f"unknown family {family!r}; known: {sorted(FAMILY_NAMES)}"
        )
    return class_count(scenario[0].model), scenario
