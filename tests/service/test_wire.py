"""Unit tests for the service wire format."""

import json

import pytest

from repro.datasets.paper_examples import bookstore_example
from repro.discovery.options import DiscoveryOptions
from repro.exceptions import WireFormatError
from repro.mappings.serialize import FORMAT, candidate_to_dict
from repro.service.wire import (
    discover_request_from_wire,
    resolve_dataset,
    result_to_wire,
    scenario_from_wire,
    semantics_from_wire,
    semantics_to_wire,
)


@pytest.fixture(scope="module")
def bookstore():
    return bookstore_example()


class TestDatasetScenarios:
    def test_dataset_case_resolves(self):
        scenario = scenario_from_wire(
            {"dataset": "DBLP", "case": "dblp-article-in-journal"}
        )
        assert scenario.scenario_id == "DBLP/dblp-article-in-journal"
        assert len(scenario.correspondences) > 0

    def test_explicit_id_wins(self):
        scenario = scenario_from_wire(
            {
                "dataset": "DBLP",
                "case": "dblp-article-in-journal",
                "id": "mine",
            }
        )
        assert scenario.scenario_id == "mine"

    def test_dataset_objects_are_shared_across_requests(self):
        first = scenario_from_wire(
            {"dataset": "DBLP", "case": "dblp-article-in-journal"}
        )
        second = scenario_from_wire(
            {"dataset": "DBLP", "case": "dblp-book-publisher"}
        )
        assert first.source is second.source  # warm resolver, not a reload

    def test_adhoc_correspondences(self):
        pair = resolve_dataset("DBLP")
        case = pair.cases[0]
        texts = [
            str(c).replace("↔", "<->") for c in case.correspondences
        ]
        scenario = scenario_from_wire(
            {"dataset": "DBLP", "correspondences": texts}
        )
        assert scenario.scenario_id == "DBLP/adhoc"
        assert len(scenario.correspondences) == len(case.correspondences)

    def test_unknown_dataset(self):
        with pytest.raises(WireFormatError, match="unknown dataset"):
            scenario_from_wire({"dataset": "nope", "case": "x"})

    def test_unknown_case_lists_known_ones(self):
        with pytest.raises(WireFormatError, match="dblp-article-in-journal"):
            scenario_from_wire({"dataset": "DBLP", "case": "nope"})

    def test_dataset_without_case_or_correspondences(self):
        with pytest.raises(WireFormatError, match="needs a 'case'"):
            scenario_from_wire({"dataset": "DBLP"})


class TestInlineScenarios:
    def test_semantics_round_trip_preserves_discovery(self, bookstore):
        rebuilt = semantics_from_wire(semantics_to_wire(bookstore.source))
        assert rebuilt.schema.table_names() == (
            bookstore.source.schema.table_names()
        )
        assert rebuilt.tables_with_semantics() == (
            bookstore.source.tables_with_semantics()
        )
        spec = {
            "source": semantics_to_wire(bookstore.source),
            "target": semantics_to_wire(bookstore.target),
            "correspondences": [
                str(c).replace("↔", "<->")
                for c in bookstore.correspondences
            ],
        }
        scenario = scenario_from_wire(spec)
        assert scenario.scenario_id == "inline"
        inline_result = scenario.run()
        reference = bookstore_example()
        from repro.discovery.mapper import SemanticMapper

        ref_result = SemanticMapper(
            reference.source, reference.target, reference.correspondences
        ).discover()
        assert [str(c.to_tgd("M")) for c in inline_result.candidates] == [
            str(c.to_tgd("M")) for c in ref_result.candidates
        ]

    def test_wire_spec_is_json_serializable(self, bookstore):
        text = json.dumps(semantics_to_wire(bookstore.source))
        rebuilt = semantics_from_wire(json.loads(text))
        assert rebuilt.schema.name == bookstore.source.schema.name

    def test_missing_sections_rejected(self):
        with pytest.raises(WireFormatError, match="needs 'schema'"):
            semantics_from_wire({"model": {"name": "m"}})
        with pytest.raises(WireFormatError, match="needs either"):
            scenario_from_wire({"correspondences": []})

    def test_bad_tree_rejected(self, bookstore):
        spec = semantics_to_wire(bookstore.source)
        table = next(iter(spec["trees"]))
        spec["trees"][table]["root"] = "NoSuchClass"
        with pytest.raises(WireFormatError, match="bad semantics spec"):
            semantics_from_wire(spec)

    def test_non_object_specs_rejected(self):
        with pytest.raises(WireFormatError):
            scenario_from_wire("DBLP")
        with pytest.raises(WireFormatError):
            semantics_from_wire([1, 2, 3])


class TestDiscoverRequest:
    def test_defaults(self):
        scenario, options = discover_request_from_wire(
            {"scenario": {"dataset": "DBLP", "case": "dblp-article-in-journal"}}
        )
        assert scenario.scenario_id == "DBLP/dblp-article-in-journal"
        assert options.mode == "sync"
        assert options.use_cache is True
        assert options.timeout_seconds is None

    def test_options_parsed(self):
        _, options = discover_request_from_wire(
            {
                "scenario": {
                    "dataset": "DBLP",
                    "case": "dblp-article-in-journal",
                },
                "mode": "async",
                "use_cache": False,
                "timeout_seconds": 5,
            }
        )
        assert options.mode == "async"
        assert options.use_cache is False
        assert options.timeout_seconds == 5.0

    @pytest.mark.parametrize(
        "payload, pattern",
        [
            ({}, "needs a 'scenario'"),
            ([], "JSON object"),
            (
                {"scenario": {"dataset": "DBLP", "case": "dblp-article-in-journal"}, "mode": "later"},
                "'mode' must be",
            ),
            (
                {"scenario": {"dataset": "DBLP", "case": "dblp-article-in-journal"}, "use_cache": "yes"},
                "'use_cache' must be",
            ),
            (
                {"scenario": {"dataset": "DBLP", "case": "dblp-article-in-journal"}, "timeout_seconds": -1},
                "'timeout_seconds' must be",
            ),
        ],
    )
    def test_bad_requests(self, payload, pattern):
        with pytest.raises(WireFormatError, match=pattern):
            discover_request_from_wire(payload)

    def test_bad_mapper_options(self):
        with pytest.raises(WireFormatError, match="unknown options key"):
            scenario_from_wire(
                {
                    "dataset": "DBLP",
                    "case": "dblp-article-in-journal",
                    "mapper_options": {"cost_model": {"nested": 1}},
                }
            )

    @pytest.mark.parametrize("where", ["request", "scenario"])
    def test_cache_dir_refused_from_clients(self, where):
        # The cache directory is a server deployment setting; a client
        # must not be able to point the process at a filesystem path.
        payload: dict = {
            "scenario": {
                "dataset": "DBLP",
                "case": "dblp-article-in-journal",
            }
        }
        options = {"cache_dir": "/tmp/attacker-controlled"}
        if where == "request":
            payload["options"] = options
        else:
            payload["scenario"]["options"] = options
        with pytest.raises(WireFormatError, match="server-side"):
            discover_request_from_wire(payload)

    @pytest.mark.parametrize("key", ["options", "mapper_options"])
    def test_scenario_cache_dir_refused_under_either_key(self, key, tmp_path):
        # "mapper_options" is an alias of "options": it must not be a
        # way around the cache_dir refusal.
        target = tmp_path / "store"
        with pytest.raises(WireFormatError, match="server-side"):
            scenario_from_wire(
                {
                    "dataset": "DBLP",
                    "case": "dblp-article-in-journal",
                    key: {"cache_dir": str(target)},
                }
            )
        assert not target.exists()

    def test_mapper_options_alias_parses_like_options(self):
        spec = {"dataset": "DBLP", "case": "dblp-article-in-journal"}
        via_alias = scenario_from_wire(
            {**spec, "mapper_options": {"max_path_edges": 4}}
        )
        via_options = scenario_from_wire(
            {**spec, "options": {"max_path_edges": 4}}
        )
        assert via_alias.mapper_options == via_options.mapper_options
        assert via_alias.discovery_options() == DiscoveryOptions(
            max_path_edges=4
        )
        with pytest.raises(WireFormatError, match="not both"):
            scenario_from_wire(
                {**spec, "options": {}, "mapper_options": {}}
            )

    @pytest.mark.parametrize("key", ["options", "mapper_options"])
    @pytest.mark.parametrize(
        "removed",
        [
            "profile_cache_size",
            "translation_cache_size",
            "stage_cache_size",
            "distance_oracle",
        ],
    )
    def test_removed_option_keys_are_unknown(self, key, removed):
        with pytest.raises(WireFormatError, match=removed):
            scenario_from_wire(
                {
                    "dataset": "DBLP",
                    "case": "dblp-article-in-journal",
                    key: {removed: 0},
                }
            )

    @pytest.mark.parametrize("where", ["request", "scenario"])
    def test_removed_subtree_cache_size_is_unknown(self, where):
        payload: dict = {
            "scenario": {
                "dataset": "DBLP",
                "case": "dblp-article-in-journal",
            }
        }
        options = {"subtree_cache_size": 0}
        if where == "request":
            payload["options"] = options
        else:
            payload["scenario"]["options"] = options
        with pytest.raises(WireFormatError, match="subtree_cache_size"):
            discover_request_from_wire(payload)


class TestResultPayloads:
    def test_result_to_wire_reuses_mapping_serializer(self):
        scenario = scenario_from_wire(
            {"dataset": "DBLP", "case": "dblp-article-in-journal"}
        )
        result = scenario.run()
        payload = result_to_wire(result)
        assert payload["mapping"]["format"] == FORMAT
        assert payload["mapping"]["candidates"] == [
            candidate_to_dict(c) for c in result.candidates
        ]
        assert payload["run"]["elapsed_seconds"] == result.elapsed_seconds
        json.dumps(payload)  # must be JSON-clean

    def test_mapping_section_is_deterministic(self):
        scenario = scenario_from_wire(
            {"dataset": "DBLP", "case": "dblp-article-in-journal"}
        )
        first = result_to_wire(scenario.run())["mapping"]
        second = result_to_wire(scenario.run())["mapping"]
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
