"""The persistent stage store: durability, corruption, and engine wiring.

The store's contract is "a disk can be wrong, a result cannot": any
entry that is truncated, garbage, differently versioned, or misfiled
must read as a miss (the engine recomputes and overwrites), while a
good entry must hand back exactly the artifact that was stored — across
threads, processes, and restarts. The engine-level tests pin the
tentpole behaviour: a fresh process (simulated by clearing the
in-memory tiers) re-serves a previous run's output from disk,
byte-identical, via a full hit on the ``rank`` artifact.
"""

import json
import multiprocessing
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf as perf
from repro.cm.cardinality import Cardinality
from repro.datasets.registry import load_all_datasets
from repro.discovery import DiscoveryOptions, SemanticMapper
from repro.discovery.engine import StageCache, clear_stage_cache, stage_cache
from repro.discovery.engine.stages import UNIT_STAGE
from repro.discovery.engine.persist import (
    STORE_FORMAT,
    STORE_VERSION,
    PersistentStageStore,
    active_cache_dir,
    cache_dir_override,
    configure,
    configured_dir,
    store_for,
)
from repro.queries.conjunctive import ConjunctiveQuery, Variable, cm_atom

FP = "a" * 64


class _DictStateCardinality:
    """Pickles the way a ``Cardinality(0, None)`` did before it had slots:
    the class, then its instance dict as the state."""

    def __reduce__(self):
        return (object.__new__, (Cardinality,), {"lower": 0, "upper": None})


class _DictStateQuery:
    """Pickles the way ``ans(x) :- O:Person(x)`` did before queries had
    slots: the class, then its instance dict as the state."""

    def __reduce__(self):
        x = Variable("x")
        state = {
            "name": "ans",
            "head_terms": (x,),
            "body": (cm_atom("Person", x),),
        }
        return (object.__new__, (ConjunctiveQuery,), state)


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    yield
    perf.clear_caches()


@pytest.fixture()
def store(tmp_path):
    return PersistentStageStore(tmp_path / "cache")


class TestStoreRoundTrip:
    def test_put_get(self, store):
        artifact = {"candidates": [1, 2, 3], "notes": ("n",)}
        assert store.put("rank", FP, artifact) is True
        assert store.get("rank", FP) == artifact

    def test_absent_is_none(self, store):
        assert store.get("rank", FP) is None

    def test_keys_are_stage_and_fingerprint(self, store):
        store.put("rank", FP, "rank-artifact")
        assert store.get("lift", FP) is None
        assert store.get("rank", "b" * 64) is None

    def test_survives_reopen(self, store):
        store.put("translate", FP, [1, 2])
        reopened = PersistentStageStore(store.root)
        assert reopened.get("translate", FP) == [1, 2]

    def test_clear_removes_entries(self, store):
        store.put("rank", FP, 1)
        store.put("lift", "b" * 64, 2)
        assert store.clear() == 2
        assert store.get("rank", FP) is None
        assert len(store) == 0

    def test_stats_counts_by_stage(self, store):
        store.put("rank", FP, 1)
        store.put("rank", "b" * 64, 2)
        store.put("lift", FP, 3)
        stats = store.stats()
        assert stats["rank"] == 2
        assert stats["lift"] == 1
        assert stats["entries"] == 3


class TestCorruptionDegradesToMiss:
    """Anything wrong on disk is a miss — never a crash, never a lie."""

    def _seed(self, store, data: bytes) -> None:
        path = store.entry_path("rank", FP)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def test_garbage_bytes(self, store):
        self._seed(store, b"not a pickle at all")
        assert store.get("rank", FP) is None

    def test_truncated_entry(self, store):
        store.put("rank", FP, {"big": "x" * 4096})
        path = store.entry_path("rank", FP)
        path.write_bytes(path.read_bytes()[:20])
        assert store.get("rank", FP) is None

    def test_empty_file(self, store):
        self._seed(store, b"")
        assert store.get("rank", FP) is None

    def test_wrong_store_version(self, store):
        self._seed(
            store,
            pickle.dumps(
                (STORE_FORMAT, STORE_VERSION + 1, "rank", FP, "artifact")
            ),
        )
        assert store.get("rank", FP) is None

    def test_version_2_entry_with_dict_state_cardinality_is_a_miss(
        self, store
    ):
        # Version 2 wrote the input value objects with an instance-dict
        # state. A slotted class's generated ``__setstate__`` zips its
        # field names against that dict, so the bytes load without error
        # into a wrong object; only the version check keeps it out.
        assert STORE_VERSION > 2
        payload = pickle.dumps(
            (STORE_FORMAT, 2, "rank", FP, {"card": _DictStateCardinality()}),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        loaded = pickle.loads(payload)[4]["card"]
        assert type(loaded) is Cardinality
        assert (loaded.lower, loaded.upper) == ("lower", "upper")
        self._seed(store, payload)
        assert store.get("rank", FP) is None

    def test_version_3_entry_with_dict_state_query_is_a_miss(self, store):
        # Version 3 wrote queries with an instance-dict state. The
        # slotted query's ``__setstate__`` unpacks a three-key dict into
        # its three fields, keys for values, without error.
        assert STORE_VERSION > 3
        payload = pickle.dumps(
            (STORE_FORMAT, 3, "rank", FP, {"query": _DictStateQuery()}),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        loaded = pickle.loads(payload)[4]["query"]
        assert type(loaded) is ConjunctiveQuery
        assert (loaded.name, loaded.head_terms, loaded.body) == (
            "name",
            "head_terms",
            "body",
        )
        self._seed(store, payload)
        assert store.get("rank", FP) is None

    def test_wrong_format_magic(self, store):
        self._seed(
            store,
            pickle.dumps(("other-store", STORE_VERSION, "rank", FP, "a")),
        )
        assert store.get("rank", FP) is None

    def test_misfiled_entry_header_mismatch(self, store):
        # A valid entry for a *different* key copied into this path.
        self._seed(
            store,
            pickle.dumps(
                (STORE_FORMAT, STORE_VERSION, "lift", "b" * 64, "a")
            ),
        )
        assert store.get("rank", FP) is None

    def test_corrupt_entry_is_overwritten_by_put(self, store):
        self._seed(store, b"garbage")
        store.put("rank", FP, "good")
        assert store.get("rank", FP) == "good"

    def test_unpicklable_artifact_fails_put_without_raising(self, store):
        assert store.put("rank", FP, lambda: None) is False
        assert store.get("rank", FP) is None


# Hypothesis: whatever JSON-shaped artifact goes in comes out equal.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestSerializationProperty:
    @settings(max_examples=50, deadline=None)
    @given(artifact=_json_values, fingerprint=st.text("0123456789abcdef", min_size=4, max_size=64))
    def test_round_trip(self, tmp_path_factory, artifact, fingerprint):
        store = PersistentStageStore(
            tmp_path_factory.mktemp("prop") / "cache"
        )
        assert store.put("stage", fingerprint, artifact) is True
        assert store.get("stage", fingerprint) == artifact


def _hammer(root: str, writer: int, rounds: int) -> None:
    store = PersistentStageStore(root)
    for i in range(rounds):
        store.put(
            "rank", FP, {"writer": writer, "round": i, "pad": "x" * 2048}
        )


class TestConcurrentWriters:
    def test_racing_processes_never_produce_a_torn_entry(self, tmp_path):
        """Two processes hammer one key; every read is complete or a miss.

        ``os.replace`` publication is the claim under test: a reader
        concurrent with the race must only ever see a fully written
        entry (the header validates stage and fingerprint), never a
        partial file, and the store must never raise.
        """
        root = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_hammer, args=(root, w, 40))
            for w in range(2)
        ]
        for proc in writers:
            proc.start()
        reader = PersistentStageStore(root)
        observed = 0
        while any(proc.is_alive() for proc in writers):
            entry = reader.get("rank", FP)
            if entry is not None:
                assert set(entry) == {"writer", "round", "pad"}
                assert len(entry["pad"]) == 2048
                observed += 1
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        final = reader.get("rank", FP)
        assert final is not None and final["round"] == 39
        assert observed > 0


class TestActivation:
    def test_inactive_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert configured_dir() is None
        assert active_cache_dir() is None

    def test_env_var_activates(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert active_cache_dir() == str(tmp_path)

    def test_configure_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        configure(tmp_path)
        try:
            assert active_cache_dir() == str(tmp_path)
        finally:
            configure(None)

    def test_override_beats_configure(self, tmp_path):
        configure(tmp_path / "configured")
        try:
            with cache_dir_override(tmp_path / "override"):
                assert active_cache_dir() == str(tmp_path / "override")
            assert active_cache_dir() == str(tmp_path / "configured")
        finally:
            configure(None)

    def test_store_for_is_shared_per_directory(self, tmp_path):
        assert store_for(tmp_path) is store_for(tmp_path)

    def test_cache_dir_never_in_option_pairs(self, tmp_path):
        # A deployment path must not leak into content fingerprints:
        # two hosts caching in different directories share results.
        options = DiscoveryOptions(cache_dir=str(tmp_path))
        assert options.to_pairs() == ()

    def test_cache_dir_validation(self):
        with pytest.raises(ValueError):
            DiscoveryOptions(cache_dir="")


class TestEngineDiskTier:
    def _discover(self, example, cache_dir):
        return SemanticMapper(
            example.source,
            example.target,
            example.correspondences,
            options=DiscoveryOptions(cache_dir=str(cache_dir)),
        ).discover()

    def test_fresh_memory_serves_from_disk_byte_identical(
        self, bookstore, tmp_path
    ):
        cold = self._discover(bookstore, tmp_path)
        assert cold.stats.get("stage_cache_disk_writes", 0) > 0
        clear_stage_cache()  # simulate a fresh process: memory gone
        warm = self._discover(bookstore, tmp_path)
        assert warm.stats.get("stage_cache_disk_hit_rank") == 1
        assert [str(c) for c in warm.candidates] == [
            str(c) for c in cold.candidates
        ]

    def test_seeded_garbage_entry_does_not_break_discovery(
        self, bookstore, tmp_path
    ):
        cold = self._discover(bookstore, tmp_path)
        store = store_for(tmp_path)
        # Corrupt *every* entry the cold run wrote, then rediscover.
        for path in store._entry_files():
            path.write_bytes(b"garbage")
        clear_stage_cache()
        again = self._discover(bookstore, tmp_path)
        assert [str(c) for c in again.candidates] == [
            str(c) for c in cold.candidates
        ]

    def test_clear_caches_empties_the_active_store(
        self, bookstore, tmp_path
    ):
        self._discover(bookstore, tmp_path)
        store = store_for(tmp_path)
        assert len(store) > 0
        configure(tmp_path)
        try:
            perf.clear_caches()
        finally:
            configure(None)
        assert len(store) == 0

    def test_no_disk_traffic_without_cache_dir(self, bookstore):
        result = SemanticMapper(
            bookstore.source,
            bookstore.target,
            bookstore.correspondences,
        ).discover()
        assert "stage_cache_disk_writes" not in result.stats
        assert "stage_cache_disk_misses" not in result.stats

    def test_paper_pass_caches_only_what_a_run_can_read(self, tmp_path):
        # A cold pass over the 34 paper cases stores one whole-run
        # ``rank`` result per case and one unit per target CSG searched;
        # no other stage's output is ever read back, so none is kept,
        # in memory or on disk.
        options = DiscoveryOptions(cache_dir=str(tmp_path))
        for pair in load_all_datasets():
            for case in pair.cases:
                SemanticMapper(
                    pair.source,
                    pair.target,
                    case.correspondences,
                    options=options,
                ).discover()
        assert stage_cache().stats() == {
            "rank": 34,
            UNIT_STAGE: 47,
            "entries": 81,
        }
        assert sorted(
            path.name for path in tmp_path.iterdir() if path.is_dir()
        ) == ["rank", "source_search_unit"]
        assert store_for(tmp_path).stats() == {
            "rank": 34,
            "source_search_unit": 47,
            "entries": 81,
        }


#: Discover the bookstore example through a disk cache, then cold in the
#: same process, and report whether the two candidate lists are equal.
_HASH_SEED_PROBE = """
import json, sys
from repro.datasets.paper_examples import bookstore_example
from repro.discovery import DiscoveryOptions, SemanticMapper
from repro.perf import clear_caches

example = bookstore_example()

def discover(**options):
    return SemanticMapper(
        example.source, example.target, example.correspondences,
        options=DiscoveryOptions(**options),
    ).discover()

cached = discover(cache_dir=sys.argv[1])
clear_caches()
cold = discover()
print(json.dumps({
    "disk_hit_rank": cached.stats.get("stage_cache_disk_hit_rank", 0),
    "equal": cached.candidates == cold.candidates,
    "text_equal": [str(c) for c in cached.candidates]
    == [str(c) for c in cold.candidates],
}))
"""


class TestCrossProcessHashSeeds:
    """Entries written under one string-hash seed serve another.

    Terms and atoms cache their hash; an artifact unpickled in a
    process with a different ``PYTHONHASHSEED`` must rebuild those
    hashes, or its queries print the same as a cold run's but compare
    unequal to them.
    """

    def _probe(self, cache_dir, seed):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(__file__).resolve().parents[2] / "src"
        )
        env["PYTHONHASHSEED"] = str(seed)
        env.pop("REPRO_CACHE_DIR", None)
        completed = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE, str(cache_dir)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout.splitlines()[-1])

    def test_disk_warm_candidates_equal_cold_under_another_seed(
        self, tmp_path
    ):
        writer = self._probe(tmp_path, seed=1)
        assert writer["disk_hit_rank"] == 0
        assert writer["equal"] is True
        reader = self._probe(tmp_path, seed=2)
        assert reader["disk_hit_rank"] == 1
        assert reader["text_equal"] is True
        assert reader["equal"] is True


class TestShrunkBoundEnforcedOnGet:
    """A zero-capacity cache reads nothing, not even from disk."""

    def test_zero_bound_blocks_reads_and_disk(self, tmp_path):
        store = store_for(tmp_path)
        store.put("lift", FP, "from-disk")
        with cache_dir_override(tmp_path):
            assert StageCache(capacity=0).get("lift", FP) is None
            assert StageCache().get("lift", FP) == "from-disk"
