"""Unit tests for the content-addressed result cache."""

import pytest

from repro.datasets.paper_examples import bookstore_example
from repro.discovery.batch import Scenario, scenario_fingerprint
from repro.discovery.engine.persist import PersistentStageStore
from repro.discovery.options import DiscoveryOptions
from repro.service.cache import (
    RESULT_STAGE,
    SWEEP_PROBES,
    EncodedResult,
    ResultCache,
)

#: A stored result: the disk tier keeps only encoded bytes.
PAYLOAD = EncodedResult(b'{"payload": 1}')


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestResultCache:
    def test_put_get_round_trip(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", {"x": 1})
        assert cache.get("a") == {"x": 1}
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_none_and_counts(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("missing") is None
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.0)
        assert cache.get("a") == 1
        clock.advance(2.0)
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["entries"] == 0

    def test_zero_entries_disables_cache(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_entries": -1}, {"ttl_seconds": 0.0}, {"ttl_seconds": -5}],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ResultCache(**{"max_entries": 4, **kwargs})


class TestExpirySweep:
    """Expired entries must die even if their keys are never touched.

    The original bug: TTL expiry only ran inside ``get(key)``, so an
    entry whose key never came back stayed in memory forever — a
    skewed access pattern could fill the cache with dead payloads.
    ``put`` now sweeps the LRU cold end.
    """

    def test_put_reclaims_untouched_expired_entries(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=64, ttl_seconds=10.0, clock=clock)
        for i in range(8):
            cache.put(f"dead-{i}", i)
        clock.advance(11.0)  # all eight expire; none is ever get()ed
        cache.put("fresh", "payload")
        stats = cache.stats()
        assert stats["expirations"] == 8
        assert stats["entries"] == 1
        assert len(cache) == 1  # raw occupancy agrees: they are gone
        assert cache.get("fresh") == "payload"

    def test_sweep_is_bounded_per_put(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=256, ttl_seconds=10.0, clock=clock)
        count = SWEEP_PROBES + 5
        for i in range(count):
            cache.put(f"dead-{i}", i)
        clock.advance(11.0)
        cache.put("fresh", 1)
        # One put probes at most SWEEP_PROBES cold-end entries ...
        assert cache.stats()["expirations"] == SWEEP_PROBES
        # ... and the next put finishes the job.
        cache.put("fresh-2", 2)
        assert cache.stats()["expirations"] == count
        assert cache.stats()["entries"] == 2

    def test_sweep_stops_at_the_first_live_entry(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=64, ttl_seconds=10.0, clock=clock)
        cache.put("old", 1)
        clock.advance(6.0)
        cache.put("young", 2)
        clock.advance(5.0)  # "old" expired, "young" (age 5) still live
        cache.put("fresh", 3)
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert cache.get("young") == 2

    def test_no_ttl_means_no_sweep(self):
        cache = ResultCache(max_entries=4, ttl_seconds=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.stats()["expirations"] == 0


class TestTTLAwareIntrospection:
    """Satellite (c): expired entries are invisible everywhere."""

    def test_contains_is_ttl_aware(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=4, ttl_seconds=10.0, clock=clock)
        cache.put("a", 1)
        assert "a" in cache
        clock.advance(11.0)
        assert "a" not in cache
        # Membership checks must not mutate: the entry still awaits its
        # sweep, visible only to raw occupancy.
        assert len(cache) == 1

    def test_stats_entries_counts_only_live(self):
        clock = FakeClock()
        cache = ResultCache(max_entries=8, ttl_seconds=10.0, clock=clock)
        cache.put("old", 1)
        clock.advance(6.0)
        cache.put("young", 2)
        clock.advance(5.0)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert len(cache) == 2


class FakeEpochClock(FakeClock):
    def __init__(self) -> None:
        self.now = 1_000_000.0


class TestDiskTier:
    """Write-through + read-through against the persistent store."""

    def _store(self, tmp_path) -> PersistentStageStore:
        return PersistentStageStore(tmp_path / "cache")

    def test_sibling_cache_reads_the_others_writes(self, tmp_path):
        store = self._store(tmp_path)
        writer = ResultCache(max_entries=4, store=store)
        reader = ResultCache(max_entries=4, store=store)
        writer.put("key", PAYLOAD)
        assert reader.get("key") == {"payload": 1}
        assert reader.get("key").raw == PAYLOAD.raw
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 1  # the memory miss that fell through

    def test_promotion_serves_from_memory_afterwards(self, tmp_path):
        store = self._store(tmp_path)
        writer = ResultCache(max_entries=4, store=store)
        reader = ResultCache(max_entries=4, store=store)
        writer.put("key", PAYLOAD)
        assert reader.get("key") == PAYLOAD
        assert reader.get("key") == PAYLOAD
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["hits"] == 1

    def test_disk_entry_past_ttl_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        epoch = FakeEpochClock()
        writer = ResultCache(
            max_entries=4, ttl_seconds=10.0, store=store, epoch_clock=epoch
        )
        writer.put("key", PAYLOAD)
        epoch.advance(11.0)
        reader = ResultCache(
            max_entries=4, ttl_seconds=10.0, store=store, epoch_clock=epoch
        )
        assert reader.get("key") is None
        assert reader.stats()["disk_misses"] == 1

    def test_promotion_preserves_the_original_age(self, tmp_path):
        store = self._store(tmp_path)
        epoch = FakeEpochClock()
        writer = ResultCache(
            max_entries=4, ttl_seconds=10.0, store=store, epoch_clock=epoch
        )
        writer.put("key", PAYLOAD)
        epoch.advance(6.0)
        clock = FakeClock()
        reader = ResultCache(
            max_entries=4,
            ttl_seconds=10.0,
            clock=clock,
            store=store,
            epoch_clock=epoch,
        )
        assert reader.get("key") == PAYLOAD  # promoted at age 6
        # Both clocks tick on: total age 11 > TTL. The promoted copy
        # must expire on its *original* age, not its promotion time,
        # and the disk entry is equally past TTL.
        clock.advance(5.0)
        epoch.advance(5.0)
        assert reader.get("key") is None
        assert reader.stats()["expirations"] == 1

    def test_unexpected_disk_shape_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.put(RESULT_STAGE, "key", "not-a-(epoch,payload)-tuple")
        reader = ResultCache(max_entries=4, store=store)
        assert reader.get("key") is None
        assert reader.stats()["disk_misses"] == 1

    def test_dict_payload_of_the_old_layout_is_a_miss(self, tmp_path):
        """Results used to be stored as decoded dicts; such an entry is
        not served, and the next computed result replaces it."""
        store = self._store(tmp_path)
        store.put(RESULT_STAGE, "key", (1_000_000.0, {"payload": 1}))
        reader = ResultCache(max_entries=4, store=store)
        assert reader.get("key") is None
        assert reader.stats()["disk_misses"] == 1
        assert reader.stats()["disk_hits"] == 0
        reader.put("key", PAYLOAD)
        fresh = ResultCache(max_entries=4, store=store)
        assert fresh.get("key").raw == PAYLOAD.raw

    def test_disabled_cache_skips_the_store(self, tmp_path):
        store = self._store(tmp_path)
        seeded = ResultCache(max_entries=4, store=store)
        seeded.put("key", PAYLOAD)
        disabled = ResultCache(max_entries=0, store=store)
        assert disabled.get("key") is None
        assert disabled.stats()["disk_hits"] == 0


class TestScenarioFingerprint:
    def test_content_not_identity(self):
        first = bookstore_example()
        second = bookstore_example()  # distinct objects, equal content
        fp1 = scenario_fingerprint(
            Scenario.create(
                "one", first.source, first.target, first.correspondences
            )
        )
        fp2 = scenario_fingerprint(
            Scenario.create(
                "two", second.source, second.target, second.correspondences
            )
        )
        assert fp1 == fp2  # scenario_id must not matter

    def test_correspondences_change_key(self):
        example = bookstore_example()
        base = Scenario.create(
            "s", example.source, example.target, example.correspondences
        )
        from repro.correspondences import CorrespondenceSet

        trimmed = Scenario.create(
            "s",
            example.source,
            example.target,
            CorrespondenceSet(list(example.correspondences)[:1]),
        )
        assert scenario_fingerprint(base) != scenario_fingerprint(trimmed)

    def test_mapper_options_change_key(self):
        example = bookstore_example()
        plain = Scenario.create(
            "s", example.source, example.target, example.correspondences
        )
        tweaked = Scenario.create(
            "s",
            example.source,
            example.target,
            example.correspondences,
            options=DiscoveryOptions(max_path_edges=4),
        )
        assert scenario_fingerprint(plain) != scenario_fingerprint(tweaked)
