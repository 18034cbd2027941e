"""Property-based reliability tests: random fault patterns, random
operation sequences — the at-least-once and consistency guarantees must
hold under all of them."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.messaging.queue import QueueEmpty, TaskQueue
from repro.search.index import SearchIndex
from repro.sim.clock import VirtualClock


class TestQueueAtLeastOnce:
    @settings(max_examples=40, deadline=None)
    @given(
        crash_pattern=st.lists(st.booleans(), min_size=1, max_size=8),
    )
    def test_task_survives_any_crash_pattern_property(self, crash_pattern):
        """For any interleaving of crash/ack attempts (with at least one
        eventual success within the delivery budget), the task is either
        processed exactly once or dead-lettered — never silently lost."""
        clock = VirtualClock()
        queue = TaskQueue(clock, visibility_timeout_s=5.0, max_deliveries=20)
        queue.put("the-task")
        processed = 0
        for crashes in crash_pattern:
            try:
                msg = queue.claim()
            except QueueEmpty:
                break
            if crashes:
                clock.advance(5.0)
                queue.expire_inflight()
            else:
                queue.ack(msg.delivery_tag)
                processed += 1
                break
        # Conservation: the task is processed, still pending, in flight,
        # or dead-lettered — accounted for exactly once somewhere.
        accounted = (
            processed
            + len(queue)
            + queue.inflight_count
            + len(queue.dead_letters)
        )
        assert accounted == 1

    @settings(max_examples=30, deadline=None)
    @given(n_tasks=st.integers(1, 20), n_crashes=st.integers(0, 5))
    def test_all_tasks_eventually_processed_property(self, n_tasks, n_crashes):
        """A worker that crashes n times then behaves still drains the
        queue completely (within the delivery budget)."""
        clock = VirtualClock()
        queue = TaskQueue(clock, visibility_timeout_s=1.0, max_deliveries=n_crashes + 2)
        for i in range(n_tasks):
            queue.put(i)
        crashes_left = n_crashes
        seen = []
        while True:
            try:
                msg = queue.claim()
            except QueueEmpty:
                if queue.inflight_count == 0:
                    break
                clock.advance(1.0)
                queue.expire_inflight()
                continue
            if crashes_left > 0:
                crashes_left -= 1
                clock.advance(1.0)
                queue.expire_inflight()
            else:
                seen.append(msg.body)
                queue.ack(msg.delivery_tag)
        assert sorted(seen) == list(range(n_tasks))
        assert not queue.dead_letters


class TestSearchConsistencyUnderChurn:
    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["ingest", "delete", "reingest"]),
                st.integers(0, 5),
            ),
            max_size=25,
        )
    )
    def test_postings_match_documents_property(self, ops):
        """After any ingest/delete/reingest sequence, token postings agree
        exactly with the live document set."""
        index = SearchIndex()
        live: dict[str, str] = {}
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for op, i in ops:
            doc_id = f"d{i}"
            if op == "ingest" or (op == "reingest" and doc_id in live):
                word = words[(i + len(live)) % len(words)]
                index.ingest(doc_id, {"text": word})
                live[doc_id] = word
            elif op == "delete" and doc_id in live:
                index.delete(doc_id)
                del live[doc_id]
        assert len(index) == len(live)
        for word in words:
            expected = {d for d, w in live.items() if w == word}
            assert index.docs_with_token(word) == expected


class TestDeterminismEndToEnd:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 100))
    def test_full_stack_deterministic_in_seed_property(self, seed):
        """Same seed -> bit-identical request timings, any seed."""
        from repro.core.testbed import build_testbed
        from repro.core.zoo import build_zoo

        def run(seed):
            testbed = build_testbed(seed=seed, jitter=True)
            zoo = build_zoo(seed=seed, oqmd_entries=30, n_estimators=2)
            testbed.publish_and_deploy(zoo["noop"])
            return testbed.management.run(testbed.token, "noop").request_time

        assert run(seed) == pytest.approx(run(seed), rel=1e-12)
