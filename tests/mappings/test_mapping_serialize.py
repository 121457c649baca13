"""Unit tests for mapping-set JSON serialization."""

import pytest

from repro.datasets.paper_examples import bookstore_example, employee_example
from repro.discovery import discover_mappings
from repro.exceptions import QueryError
from repro.mappings.expression import MappingSet
from repro.mappings.serialize import (
    candidate_from_dict,
    candidate_to_dict,
    dump_mapping_set,
    load_mapping_set,
)
from repro.queries.parser import parse_query


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        scenario = bookstore_example()
        return discover_mappings(
            scenario.source, scenario.target, scenario.correspondences
        )

    @pytest.fixture(scope="class")
    def candidates(self, result):
        return result.candidates

    def test_round_trip_preserves_identity(self, candidates):
        restored = load_mapping_set(dump_mapping_set(candidates))
        assert len(restored) == len(candidates)
        for original, back in zip(candidates, restored):
            assert back.same_mapping_as(original)
            assert back.method == original.method
            assert back.covered == original.covered

    def test_round_trip_preserves_optional_tables(self):
        scenario = employee_example()
        candidates = discover_mappings(
            scenario.source, scenario.target, scenario.correspondences
        ).candidates
        restored = load_mapping_set(dump_mapping_set(candidates))
        assert restored[0].source_optional_tables == {
            "engineer",
            "programmer",
        }

    def test_output_is_deterministic(self, candidates):
        assert dump_mapping_set(candidates) == dump_mapping_set(candidates)

    def test_tgd_still_renders_after_round_trip(self, candidates):
        restored = load_mapping_set(dump_mapping_set(candidates))
        assert "→" in restored[0].to_tgd("M").render()

    def test_provenance_round_trips(self, result):
        mapping = result.mappings
        assert mapping.fingerprint
        restored = MappingSet.loads(mapping.dumps())
        assert restored == mapping
        assert restored.fingerprint == result.fingerprint

    def test_bare_set_matches_candidate_document_bytes(self, candidates):
        """Fingerprint-less sets keep the pre-MappingSet document bytes."""
        bare = MappingSet.of(candidates)
        assert bare.dumps() == dump_mapping_set(candidates)
        assert '"fingerprint"' not in bare.dumps()


class TestErrors:
    def test_bad_format_rejected(self):
        with pytest.raises(QueryError):
            load_mapping_set('{"format": "other", "candidates": []}')

    def test_skolem_terms_unserializable(self):
        from repro.correspondences import Correspondence
        from repro.mappings import MappingCandidate
        from repro.queries.conjunctive import (
            Atom,
            ConjunctiveQuery,
            SkolemTerm,
            Variable,
        )

        x = Variable("x")
        weird = MappingCandidate(
            ConjunctiveQuery(
                [x], [Atom("T:r", [x, SkolemTerm("f", (x,))])]
            ),
            parse_query("ans(x) :- t(x)"),
            (Correspondence.parse("r.a <-> t.b"),),
        )
        with pytest.raises(QueryError):
            candidate_to_dict(weird)

    def test_constants_survive(self):
        from repro.correspondences import Correspondence
        from repro.mappings import MappingCandidate

        candidate = MappingCandidate(
            parse_query("ans(x) :- r(x, 'fixed')"),
            parse_query("ans(x) :- t(x, 42)"),
            (Correspondence.parse("r.a <-> t.b"),),
        )
        restored = candidate_from_dict(candidate_to_dict(candidate))
        assert restored.same_mapping_as(candidate)
