"""Property test: mapping serialization round-trips losslessly.

For any structurally valid :class:`MappingSet`, ``load_mapping_set``
applied to ``dump_mapping_set`` must reproduce the original set exactly
(dataclass equality covers queries, covered correspondences, method,
notes, optional tables, and the set's fingerprint/scenario_id
provenance), and re-serializing the restored set must produce the
identical document text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mappings.expression import MappingCandidate, MappingSet
from repro.mappings.serialize import dump_mapping_set, load_mapping_set
from repro.queries.conjunctive import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
)

#: Bare identifiers as accepted by correspondence/atom parsing: no
#: whitespace, no dots.
names = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)

#: JSON-stable constant values (ints and strings survive a JSON trip
#: with their types intact).
constants = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x024F
        ),
        max_size=12,
    ),
)


@st.composite
def safe_queries(draw, arity):
    """A safe conjunctive query with ``arity`` head variables, each of
    which occurs in the body."""
    body_vars = draw(
        st.lists(names, min_size=1, max_size=4, unique=True)
    ).copy()
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        terms = [
            Variable(draw(st.sampled_from(body_vars)))
            if draw(st.booleans())
            else Constant(draw(constants))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
        # Guarantee at least one variable somewhere in the body.
        if not atoms and not any(isinstance(t, Variable) for t in terms):
            terms[0] = Variable(body_vars[0])
        atoms.append(Atom(draw(names), terms))
    usable = sorted(
        {t.name for atom in atoms for t in atom.terms if isinstance(t, Variable)}
    )
    head = [
        Variable(name)
        for name in draw(
            st.lists(st.sampled_from(usable), min_size=arity, max_size=arity)
        )
    ]
    return ConjunctiveQuery(head, atoms, draw(names))


@st.composite
def candidates(draw):
    covered_texts = draw(
        st.lists(
            st.tuples(names, names, names, names).map(
                lambda parts: f"{parts[0]}.{parts[1]} <-> {parts[2]}.{parts[3]}"
            ),
            max_size=3,
            unique=True,
        )
    )
    from repro.correspondences import Correspondence

    # Both heads share one arity, as a candidate requires.
    arity = draw(st.integers(min_value=1, max_value=3))
    return MappingCandidate(
        source_query=draw(safe_queries(arity)),
        target_query=draw(safe_queries(arity)),
        covered=tuple(Correspondence.parse(t) for t in covered_texts),
        method=draw(st.sampled_from(["semantic", "syntactic", "manual"])),
        notes=draw(st.text(max_size=30)),
        source_optional_tables=frozenset(
            draw(st.lists(names, max_size=3))
        ),
    )


@st.composite
def mapping_sets(draw):
    """A MappingSet with optional provenance stamps."""
    return MappingSet(
        candidates=tuple(draw(st.lists(candidates(), max_size=4))),
        fingerprint=draw(
            st.one_of(st.none(), st.from_regex(r"[0-9a-f]{16}", fullmatch=True))
        ),
        scenario_id=draw(st.one_of(st.none(), names)),
    )


class TestSerializeRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(mapping_sets())
    def test_load_after_dump_is_identity(self, original):
        text = dump_mapping_set(original)
        restored = load_mapping_set(text)
        assert restored == original
        # And the round trip is a fixed point of serialization itself.
        assert dump_mapping_set(restored) == text

    @settings(max_examples=50, deadline=None)
    @given(candidates())
    def test_single_candidate_fields_survive(self, candidate):
        (restored,) = load_mapping_set(
            dump_mapping_set([candidate])
        ).candidates
        assert restored.source_query == candidate.source_query
        assert restored.target_query == candidate.target_query
        assert restored.covered == candidate.covered
        assert restored.method == candidate.method
        assert restored.notes == candidate.notes
        assert (
            restored.source_optional_tables
            == candidate.source_optional_tables
        )
