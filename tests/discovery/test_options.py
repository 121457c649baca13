"""Unit tests for ``DiscoveryOptions``, the only way to set a knob."""

import pickle

import pytest

import repro.perf as perf
from repro.datasets.paper_examples import partof_example
from repro.datasets.registry import load_dataset
from repro.discovery import (
    DEFAULT_OPTIONS,
    DiscoveryOptions,
    Scenario,
    SemanticMapper,
)
from repro.discovery.batch import scenario_fingerprint


class TestConstruction:
    def test_defaults(self):
        options = DiscoveryOptions()
        assert options.max_path_edges == 6
        assert options.use_partof_filter is True
        assert options.use_disjointness_filter is True
        assert options.use_cardinality_filter is True
        assert options.explain is False
        assert options.trace is False

    def test_frozen_hashable_picklable(self):
        options = DiscoveryOptions(explain=True)
        with pytest.raises(AttributeError):
            options.explain = False
        assert hash(options) == hash(DiscoveryOptions(explain=True))
        assert pickle.loads(pickle.dumps(options)) == options

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_path_edges": 0},
            {"max_path_edges": "6"},
            {"max_path_edges": True},
            {"use_partof_filter": 1},
            {"explain": "yes"},
            {"trace": None},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DiscoveryOptions(**kwargs)

    def test_replace_validates(self):
        options = DiscoveryOptions().replace(explain=True)
        assert options.explain is True
        with pytest.raises(ValueError):
            DiscoveryOptions().replace(max_path_edges=-1)

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown options key"):
            DiscoveryOptions.from_mapping({"max_candidates": 3})
        with pytest.raises(ValueError, match="must be an object"):
            DiscoveryOptions.from_mapping(["explain"])


class TestSerialisation:
    def test_default_pairs_empty_for_fingerprint_stability(self):
        assert DiscoveryOptions().to_pairs() == ()

    def test_pairs_round_trip_non_defaults(self):
        options = DiscoveryOptions(max_path_edges=4, explain=True)
        pairs = options.to_pairs()
        assert pairs == (("explain", True), ("max_path_edges", 4))
        assert DiscoveryOptions.from_pairs(pairs) == options

    def test_to_dict_lists_every_field(self):
        assert DiscoveryOptions().to_dict() == {
            "max_path_edges": 6,
            "use_partof_filter": True,
            "use_disjointness_filter": True,
            "use_cardinality_filter": True,
            "explain": False,
            "trace": False,
            "engine": "semantic",
            "cache_dir": None,
        }

    @pytest.mark.parametrize(
        "removed",
        [
            "profile_cache_size",
            "translation_cache_size",
            "stage_cache_size",
            "distance_oracle",
        ],
    )
    def test_removed_keys_rejected(self, removed):
        with pytest.raises(ValueError, match=removed):
            DiscoveryOptions.from_mapping({removed: 1})

    def test_wants_trace(self):
        assert DiscoveryOptions().wants_trace is False
        assert DiscoveryOptions(trace=True).wants_trace is True
        assert DiscoveryOptions(explain=True).wants_trace is True


class TestMergeLegacyKwargs:
    """The per-knob keyword spelling is gone: only ``options=`` works."""

    @pytest.fixture(scope="class")
    def example(self):
        return partof_example(target_is_partof=True)

    def test_no_kwargs_passes_options_through(self, example):
        options = DiscoveryOptions(explain=True)
        args = (example.source, example.target, example.correspondences)
        assert SemanticMapper(*args, options=options).options is options
        assert SemanticMapper(*args).options is DEFAULT_OPTIONS

    def test_unknown_kwarg_is_type_error(self, example):
        with pytest.raises(TypeError, match="explode_on_contact"):
            SemanticMapper(
                example.source,
                example.target,
                example.correspondences,
                explode_on_contact=True,
            )

    def test_conflicting_kwarg_is_type_error(self, example):
        with pytest.raises(TypeError, match="max_path_edges"):
            SemanticMapper(
                example.source,
                example.target,
                example.correspondences,
                options=DiscoveryOptions(max_path_edges=4),
                max_path_edges=5,
            )


class TestMapperIntegration:
    @pytest.fixture(scope="class")
    def example(self):
        return partof_example(target_is_partof=True)

    def test_options_object_accepted(self, example):
        mapper = SemanticMapper(
            example.source,
            example.target,
            example.correspondences,
            options=DiscoveryOptions(use_partof_filter=False),
        )
        assert mapper.options.use_partof_filter is False
        assert not hasattr(mapper, "use_partof_filter")

    def test_unknown_kwarg_rejected(self, example):
        with pytest.raises(TypeError, match="max_candidates"):
            SemanticMapper(
                example.source,
                example.target,
                example.correspondences,
                max_candidates=3,
            )


class TestScenarioIntegration:
    @pytest.fixture(scope="class")
    def example(self):
        return partof_example(target_is_partof=True)

    def test_create_with_options(self, example):
        scenario = Scenario.create(
            "s1",
            example.source,
            example.target,
            example.correspondences,
            options=DiscoveryOptions(explain=True),
        )
        assert scenario.discovery_options() == DiscoveryOptions(explain=True)
        result = scenario.run()
        assert result.trace is not None

    def test_malformed_legacy_options_fail_at_run(self, example):
        # Pairs no options object accepts survive construction and fail
        # when the scenario runs, so a batch records one failure.
        scenario = Scenario(
            "s1",
            example.source,
            example.target,
            example.correspondences,
            (("explode_on_contact", True),),
        )
        with pytest.raises(ValueError, match="explode_on_contact"):
            scenario.discovery_options()
        with pytest.raises(ValueError, match="explode_on_contact"):
            scenario.run()

    def test_create_rejects_keyword_options(self, example):
        with pytest.raises(TypeError, match="use_partof_filter"):
            Scenario.create(
                "s1",
                example.source,
                example.target,
                example.correspondences,
                use_partof_filter=False,
            )

    def test_default_options_keep_fingerprints_stable(self, example):
        bare = Scenario.create(
            "s1", example.source, example.target, example.correspondences
        )
        with_options = Scenario.create(
            "s1",
            example.source,
            example.target,
            example.correspondences,
            options=DiscoveryOptions(),
        )
        assert scenario_fingerprint(bare) == scenario_fingerprint(
            with_options
        )

    def test_non_default_options_change_fingerprint(self, example):
        bare = Scenario.create(
            "s1", example.source, example.target, example.correspondences
        )
        tuned = Scenario.create(
            "s1",
            example.source,
            example.target,
            example.correspondences,
            options=DiscoveryOptions(max_path_edges=4),
        )
        assert scenario_fingerprint(bare) != scenario_fingerprint(tuned)


class TestMaxPathEdges:
    """``max_path_edges`` caps the source-side lossy-path search."""

    @staticmethod
    def _run(max_path_edges):
        perf.clear_caches()
        pair = load_dataset("3Sdb")
        (case,) = [c for c in pair.cases if c.case_id == "sdb-sample-gene"]
        return SemanticMapper(
            pair.source,
            pair.target,
            case.correspondences,
            options=DiscoveryOptions(max_path_edges=max_path_edges),
        ).discover()

    def test_short_cap_narrows_the_lossy_search(self):
        default, short = self._run(6), self._run(2)
        assert (
            short.stats["lossy_paths_expanded"]
            < default.stats["lossy_paths_expanded"]
        )
        assert len(default.candidates) == 1
        assert short.candidates == []
