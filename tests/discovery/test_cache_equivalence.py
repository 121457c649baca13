"""Property test: the perf layer never changes what discovery returns.

Random chain- and star-shaped conceptual models go through discovery
three ways — the uncached reference pipeline (every memo replaced by
the function it caches, see ``conftest.uncached``), cold caches, and
warm caches — and the TGD output must be byte-identical in content
*and* order every time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf as perf
from repro.cm import ConceptualModel
from repro.correspondences import CorrespondenceSet
from repro.discovery import SemanticMapper
from repro.semantics import design_schema

CARDS = ["0..1", "1..1", "0..*", "1..*"]


def _chain_model(name: str, length: int, cards) -> ConceptualModel:
    cm = ConceptualModel(name)
    for index in range(length + 1):
        cm.add_class(
            f"C{index}",
            attributes=[f"k{index}", f"a{index}"],
            key=[f"k{index}"],
        )
    for index in range(length):
        cm.add_relationship(
            f"r{index}",
            f"C{index}",
            f"C{index + 1}",
            to_card=cards[index][0],
            from_card=cards[index][1],
        )
    return cm


def _star_model(name: str, arms: int, cards) -> ConceptualModel:
    cm = ConceptualModel(name)
    cm.add_class("Hub", attributes=["hk", "ha"], key=["hk"])
    for index in range(arms):
        cm.add_class(
            f"S{index}",
            attributes=[f"sk{index}", f"sa{index}"],
            key=[f"sk{index}"],
        )
        cm.add_relationship(
            f"spoke{index}",
            "Hub",
            f"S{index}",
            to_card=cards[index][0],
            from_card=cards[index][1],
        )
    return cm


@st.composite
def scenarios(draw):
    """A (source, target, correspondences) triple over a random shape."""
    cards_strategy = st.tuples(
        st.sampled_from(CARDS), st.sampled_from(CARDS)
    )
    if draw(st.booleans()):
        length = draw(st.integers(min_value=1, max_value=3))
        cards = draw(
            st.lists(cards_strategy, min_size=length, max_size=length)
        )
        build = lambda label: _chain_model(label, length, cards)
        lines = ["c0.a0 <-> c0.a0", f"c{length}.a{length} <-> c{length}.a{length}"]
    else:
        arms = draw(st.integers(min_value=2, max_value=3))
        cards = draw(st.lists(cards_strategy, min_size=arms, max_size=arms))
        build = lambda label: _star_model(label, arms, cards)
        lines = ["s0.sa0 <-> s0.sa0", "s1.sa1 <-> s1.sa1"]
    source = design_schema(build("m_src"), "src").semantics
    target = design_schema(build("m_tgt"), "tgt").semantics
    return source, target, CorrespondenceSet.parse(lines)


def _tgds(result) -> tuple[str, ...]:
    return tuple(
        candidate.to_tgd(f"M{index}")
        for index, candidate in enumerate(result, start=1)
    )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cached_discovery_equals_uncached(data, uncached):
    source, target, correspondences = data.draw(scenarios())

    perf.clear_caches()
    with uncached():
        reference = _tgds(
            SemanticMapper(source, target, correspondences).discover()
        )

    perf.clear_caches()
    cold = _tgds(SemanticMapper(source, target, correspondences).discover())
    warm = _tgds(SemanticMapper(source, target, correspondences).discover())

    assert cold == reference
    assert warm == reference
