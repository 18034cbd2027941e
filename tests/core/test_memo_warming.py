"""Memo-cache warming: rebalancing keeps the ~1 ms memoized path hot.

``ServingRuntime.add_copy`` (used by placements, scale-out, and fleet
migration alike) copies the richest donor's memo entries for the
servable onto the new host, so the Fig. 4 cache hits survive
rebalancing instead of cold-starting on every placement change.
"""

import pytest

from repro.core.memo import MemoCache
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.sim.clock import VirtualClock

from tests.processing import process_one

key = MemoCache.make_key


@pytest.fixture()
def fleet():
    testbed = build_testbed(jitter=False, memoize_tm=True)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(3)]
    runtime = ServingRuntime(
        testbed.clock, testbed.management.queue, workers, max_batch_size=8
    )
    published = testbed.management.publish(testbed.token, zoo["noop"])
    runtime.place(zoo["noop"], published.build.image, copies=1)
    return testbed, runtime, workers


class TestMemoCacheExportAbsorb:
    def test_export_filters_by_servable(self):
        cache = MemoCache(VirtualClock())
        cache.store(key(("a", (1,), ())), "ra")
        cache.store(key(("a", (2,), ())), "ra2")
        cache.store(key(("b", (1,), ())), "rb")
        assert len(cache.export_entries("a")) == 2
        assert len(cache.export_entries("b")) == 1
        assert len(cache.export_entries()) == 3

    def test_absorb_round_trips_and_respects_capacity(self):
        source = MemoCache(VirtualClock())
        for i in range(6):
            source.store(key(("s", (i,), ())), i * 10)
        target = MemoCache(VirtualClock(), max_entries=4)
        copied = target.absorb(source.export_entries("s"))
        assert copied == 6
        assert len(target) == 4  # LRU-evicted down to capacity
        assert target.evictions == 2
        # The newest absorbed entries survived and hit.
        assert target.lookup(key(("s", (5,), ()))) == 50

    def test_absorb_overwrites_in_place(self):
        a = MemoCache(VirtualClock())
        a.store(key(("s", (1,), ())), "old")
        b = MemoCache(VirtualClock())
        b.store(key(("s", (1,), ())), "new")
        a.absorb(b.export_entries("s"))
        assert a.lookup(key(("s", (1,), ()))) == "new"


class TestAddCopyWarming:
    def warm_host(self, runtime, value=41):
        host = runtime.hosts("noop")[0]
        result = process_one(host, TaskRequest("noop", args=(value,)))
        assert result.ok and not result.cache_hit
        return host

    def test_new_copy_serves_warmed_entries_as_hits(self, fleet):
        testbed, runtime, workers = fleet
        self.warm_host(runtime)
        target = next(w for w in workers if w not in runtime.hosts("noop"))
        runtime.add_copy("noop", target)
        assert runtime.memo_entries_warmed >= 1
        hit = process_one(target, TaskRequest("noop", args=(41,)))
        assert hit.ok and hit.cache_hit
        assert hit.inference_time == 0.0

    def test_down_donor_still_warms_a_migration_target(self, fleet):
        """Migration off a crashed host is exactly when warming matters:
        the dead worker's cache survived (paper TMs restart near the
        same compute) and ships to the replacement."""
        testbed, runtime, workers = fleet
        donor = self.warm_host(runtime)
        donor.crash()
        runtime.mark_down(donor.name)
        target = next(w for w in workers if w.name != donor.name)
        runtime.add_copy("noop", target)
        hit = process_one(target, TaskRequest("noop", args=(41,)))
        assert hit.cache_hit

    def test_richest_live_donor_preferred(self, fleet):
        testbed, runtime, workers = fleet
        first = self.warm_host(runtime)
        second = next(w for w in workers if w.name != first.name)
        runtime.add_copy("noop", second)
        # Make the second copy richer, then crash the first.
        for value in (1, 2, 3):
            process_one(second, TaskRequest("noop", args=(value,)))
        third = next(
            w for w in workers if w.name not in (first.name, second.name)
        )
        runtime.add_copy("noop", third)
        # The third host got the richer (live) donor's entries.
        for value in (1, 2, 3):
            assert process_one(third, TaskRequest("noop", args=(value,))).cache_hit

    def test_memoize_off_target_is_not_warmed(self):
        testbed = build_testbed(jitter=False, memoize_tm=True)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        warm_worker = testbed.add_fleet_worker("warm", memoize=True)
        cold_worker = testbed.add_fleet_worker("cold", memoize=False)
        runtime = ServingRuntime(
            testbed.clock, testbed.management.queue, [warm_worker, cold_worker]
        )
        published = testbed.management.publish(testbed.token, zoo["noop"])
        runtime.place(zoo["noop"], published.build.image, copies=1)
        host = runtime.hosts("noop")[0]
        assert host is warm_worker  # placement order is deterministic
        process_one(host, TaskRequest("noop", args=(9,)))
        runtime.add_copy("noop", cold_worker)
        assert runtime.memo_entries_warmed == 0
        assert len(cold_worker.cache) == 0


class TestControllerMigrationWarming:
    def test_crash_migration_keeps_cache_hits(self):
        from repro.core.fleet import FleetController

        testbed = build_testbed(jitter=False, memoize_tm=True)
        zoo = build_zoo(oqmd_entries=50, n_estimators=4)
        workers = [testbed.add_fleet_worker(f"w{i}") for i in range(2)]
        runtime = ServingRuntime(testbed.clock, testbed.management.queue, workers)
        published = testbed.management.publish(testbed.token, zoo["noop"])
        runtime.place(zoo["noop"], published.build.image, copies=1)
        controller = FleetController(
            runtime, interval_s=0.1, autoscale_replicas=False
        )
        host = runtime.hosts("noop")[0]
        process_one(host, TaskRequest("noop", args=(7,)))
        host.crash()
        testbed.clock.advance(0.2)
        controller.reconcile()
        migrated = [e for e in controller.events if e.kind == "servable_migrated"]
        assert migrated
        new_host = runtime.worker(migrated[0].detail["target"])
        assert process_one(new_host, TaskRequest("noop", args=(7,))).cache_hit
