"""Unit tests for the memoization cache."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.memo import MemoCache
from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.sim.clock import VirtualClock

#: A signature's cache key: lookups and stores take keys, built once.
key = MemoCache.make_key


class TestBasicCaching:
    def test_miss_then_hit(self):
        cache = MemoCache()
        k = key(("servable", (1, 2), ()))
        assert cache.lookup(k) is cache.MISSING
        cache.store(k, "result")
        assert cache.lookup(k) == "result"
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_signatures_distinct_entries(self):
        cache = MemoCache()
        cache.store(key(("s", (1,), ())), "one")
        cache.store(key(("s", (2,), ())), "two")
        assert cache.lookup(key(("s", (1,), ()))) == "one"
        assert cache.lookup(key(("s", (2,), ()))) == "two"

    def test_ndarray_inputs_keyable(self):
        cache = MemoCache()
        arr = np.arange(10)
        cache.store(key(("model", (arr,), ())), "cached")
        assert cache.lookup(key(("model", (np.arange(10),), ()))) == "cached"

    def test_unkeyable_signature_never_cached(self):
        cache = MemoCache()
        k = key(("s", (lambda: 1,), ()))
        assert k is None
        assert not cache.store(k, "x")
        assert cache.lookup(k) is cache.MISSING
        assert cache.unhashable == 1

    def test_clear(self):
        cache = MemoCache()
        cache.store(key(("s", (), ())), 1)
        cache.clear()
        assert len(cache) == 0


class TestLRU:
    def test_eviction_at_capacity(self):
        cache = MemoCache(max_entries=2)
        for i in range(3):
            cache.store(key(("s", (i,), ())), i)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(key(("s", (0,), ()))) is cache.MISSING  # oldest gone
        assert cache.lookup(key(("s", (2,), ()))) == 2

    def test_lookup_refreshes_recency(self):
        cache = MemoCache(max_entries=2)
        cache.store(key(("s", (0,), ())), 0)
        cache.store(key(("s", (1,), ())), 1)
        cache.lookup(key(("s", (0,), ())))  # refresh 0
        cache.store(key(("s", (2,), ())), 2)  # evicts 1, not 0
        assert cache.lookup(key(("s", (0,), ()))) == 0
        assert cache.lookup(key(("s", (1,), ()))) is cache.MISSING

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MemoCache(max_entries=0)


class TestClockCharging:
    def test_lookup_charges_clock(self):
        clock = VirtualClock()
        cache = MemoCache(clock, lookup_cost_s=0.0005)
        cache.lookup(key(("s", (), ())))
        assert clock.now() == pytest.approx(0.0005)

    def test_no_clock_no_charge(self):
        cache = MemoCache(None)
        cache.lookup(key(("s", (), ())))  # must not raise


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
            min_size=1,
            max_size=40,
        )
    )
    def test_store_then_lookup_property(self, pairs):
        """Whatever was stored last for a key is what lookup returns."""
        cache = MemoCache(max_entries=1000)
        expected = {}
        for i, value in pairs:
            cache.store(key(("s", (i,), ())), value)
            expected[i] = value
        for i, value in expected.items():
            assert cache.lookup(key(("s", (i,), ()))) == value

    @given(st.integers(1, 10), st.integers(1, 50))
    def test_capacity_never_exceeded_property(self, capacity, n_inserts):
        cache = MemoCache(max_entries=capacity)
        for i in range(n_inserts):
            cache.store(key(("s", (i,), ())), i)
            assert len(cache) <= capacity


class TestTaskManagerKeysOnce:
    """The Task Manager pickles each signature once per item: the one
    key serves the lookup and the store."""

    @pytest.fixture
    def task_manager(self):
        testbed = build_testbed(jitter=False)
        testbed.publish_and_deploy(build_zoo(oqmd_entries=50, n_estimators=4)["noop"])
        return testbed.task_manager

    def run_counting_keys(self, task_manager, request):
        with mock.patch.object(MemoCache, "make_key", wraps=MemoCache.make_key) as make_key:
            result = task_manager.process(request)
        assert result.ok
        return make_key.call_count

    def test_a_request_is_keyed_once_hit_or_miss(self, task_manager):
        cache = task_manager.cache
        assert self.run_counting_keys(task_manager, TaskRequest("noop", args=(7,))) == 1
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        assert self.run_counting_keys(task_manager, TaskRequest("noop", args=(7,))) == 1
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_a_batch_keys_each_item_once(self, task_manager):
        cache = task_manager.cache
        task_manager.process(TaskRequest("noop", args=(1,)))
        batch = TaskRequest("noop", batch=[(1,), (2,), (3,)])
        assert self.run_counting_keys(task_manager, batch) == 3
        assert (cache.hits, cache.misses, len(cache)) == (1, 3, 3)
