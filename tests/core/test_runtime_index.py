"""Property tests: the runtime's event indices vs the reference scan.

``ServingRuntime._next_window`` answers dispatch decisions from
incrementally maintained heaps; ``_next_window_scan`` is the retained
linear reference. Semantics must be bit-for-bit identical — same
dispatchable topic (including tag/flush/topic tie-breaks), same host
routed to it, same next-event horizon — under any interleaving of enqueues, claims,
settles, withdrawals, lane churn, and fleet churn. These tests drive
randomized op sequences and compare the two implementations after every
step, plus targeted cases for the lazy-invalidation edges.
"""

import math
import random
from unittest import mock

import pytest

from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.zoo import build_zoo
from repro.messaging.queue import servable_topic


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def build_runtime(zoo, n_workers=2, servables=("noop", "matminer_util"), **kw):
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    workers = [testbed.task_manager]
    workers += [testbed.add_task_manager(f"tm-{i}") for i in range(1, n_workers)]
    kw.setdefault("max_coalesce_delay_s", 0.05)
    kw.setdefault("max_batch_size", 4)
    runtime = ServingRuntime(
        testbed.clock, testbed.management.queue, workers, **kw
    )
    for name in servables:
        published = testbed.management.publish(testbed.token, zoo[name])
        runtime.place(zoo[name], published.build.image)
    return testbed, runtime


def build_fleet_runtime(zoo, n_workers=3, **kw):
    """Like :func:`build_runtime`, on own-clock workers: a host is busy
    until its clock (cold start, then each batch) is reached, so hosts
    differ in when they free up."""
    from repro.core.testbed import build_testbed

    testbed = build_testbed(jitter=False, memoize_tm=False)
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]
    kw.setdefault("max_coalesce_delay_s", 0.0)
    runtime = ServingRuntime(testbed.clock, testbed.management.queue, workers, **kw)
    published = testbed.management.publish(testbed.token, zoo["noop"])
    runtime.place(zoo["noop"], published.build.image, copies=n_workers)
    return testbed, runtime


def assert_agree(runtime, now):
    """The index and the scan give identical answers at ``now``."""
    assert runtime._next_window(now) == runtime._next_window_scan(now)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_heap_matches_scan_under_random_ops(self, zoo, seed):
        """Random enqueue/claim/settle/withdraw/clock ops, checked stepwise."""
        rng = random.Random(seed)
        testbed, runtime = build_runtime(zoo)
        servables = ("noop", "matminer_util")
        tenants = (None, "alpha", "beta", "gamma")
        claimed = []
        for _ in range(220):
            op = rng.random()
            now = testbed.clock.now()
            if op < 0.45:
                request = TaskRequest(rng.choice(servables), args=("x",))
                request.tenant = rng.choice(tenants)
                if rng.random() < 0.6:
                    request.dispatch_tag = rng.uniform(0.0, 10.0)
                runtime.submit(request)
            elif op < 0.65:
                pick, _, _ = runtime._next_window_scan(now)
                if pick is not None:
                    claimed.extend(
                        runtime.queue.claim_many(pick, n=rng.randint(1, 3))
                    )
            elif op < 0.78 and claimed:
                msg = claimed.pop(rng.randrange(len(claimed)))
                if rng.random() < 0.5:
                    runtime.queue.ack(msg.delivery_tag)
                else:
                    runtime.queue.nack(msg.delivery_tag, requeue=True)
            elif op < 0.88:
                name = rng.choice(servables)
                lane = rng.choice(["requests", "tenant-alpha", "tenant-beta"])
                topic = servable_topic(name, lane=lane)
                withdrawn = runtime.queue.withdraw_newest(topic, n=1)
                if withdrawn and rng.random() < 0.7:
                    runtime.queue.restore(withdrawn[0])
            else:
                testbed.clock.advance(rng.uniform(0.0, 0.08))
            assert_agree(runtime, testbed.clock.now())

    @pytest.mark.parametrize("seed", range(4))
    def test_heap_matches_scan_under_fleet_churn(self, zoo, seed):
        """Liveness flips and copy moves never desync the two answers."""
        rng = random.Random(1000 + seed)
        testbed, runtime = build_runtime(zoo, n_workers=3)
        names = [w.name for w in runtime.workers]
        downed = set()
        for _ in range(150):
            op = rng.random()
            if op < 0.4:
                request = TaskRequest("noop", args=("x",))
                request.tenant = rng.choice((None, "alpha", "beta"))
                request.dispatch_tag = rng.uniform(0.0, 5.0)
                runtime.submit(request)
            elif op < 0.6:
                name = rng.choice(names)
                if name in downed:
                    runtime.mark_up(name)
                    downed.discard(name)
                elif len(downed) < len(names):  # keep the door open
                    runtime.mark_down(name)
                    downed.add(name)
            elif op < 0.75:
                pick, _, _ = runtime._next_window_scan(testbed.clock.now())
                if pick is not None:
                    for msg in runtime.queue.claim_many(pick, n=1):
                        runtime.queue.ack(msg.delivery_tag)
            elif op < 0.9:
                worker = rng.choice(runtime.workers)
                hosts = runtime.placement()["noop"]
                if worker.name not in hosts:
                    runtime.add_copy("noop", worker)
                elif len(hosts) > 1:
                    runtime.remove_copy("noop", worker.name)
            else:
                testbed.clock.advance(rng.uniform(0.0, 0.05))
            assert_agree(runtime, testbed.clock.now())

    @pytest.mark.parametrize("seed", range(3))
    def test_routed_host_matches_scan_on_busy_hosts(self, zoo, seed):
        """Real dispatches onto own-clock hosts leave them free at
        different times; index and scan route every pick to the same
        host and see the same host-free horizon behind a due window."""
        rng = random.Random(3000 + seed)
        testbed, runtime = build_fleet_runtime(zoo, max_batch_size=2)
        clock = testbed.clock
        names = [w.name for w in runtime.workers]
        hosts_seen = set()
        for _ in range(200):
            op = rng.random()
            now = clock.now()
            if op < 0.45:
                request = TaskRequest("noop", args=("x",))
                request.tenant = rng.choice((None, "alpha", "beta"))
                request.dispatch_tag = rng.uniform(0.0, 5.0)
                runtime.submit(request)
            elif op < 0.7:
                topic, host, _ = runtime._next_window(now)
                if topic is not None:
                    hosts_seen.add(host.name)
                    runtime._dispatch_topic(topic, host)
            elif op < 0.8:
                runtime._settle(now)
            elif op < 0.85:
                name = rng.choice(names)
                if name in runtime._down:
                    runtime.mark_up(name)
                elif len(runtime._down) < len(names) - 1:
                    runtime.mark_down(name)
            else:
                clock.advance(rng.uniform(0.0, 0.01))
            assert_agree(runtime, clock.now())
        assert len(hosts_seen) > 1

    @pytest.mark.parametrize("seed", range(3))
    def test_full_serve_matches_scan_results(self, zoo, seed):
        """End-to-end: a served random schedule settles identically under
        index-driven dispatch and a scan-driven twin."""
        rng = random.Random(2000 + seed)
        schedule = []
        offset = 0.0
        for _ in range(60):
            offset += rng.uniform(0.0, 0.02)
            request = TaskRequest("noop", args=("x",))
            if rng.random() < 0.5:
                request.tenant = rng.choice(("alpha", "beta"))
                request.dispatch_tag = rng.uniform(0.0, 3.0)
            schedule.append((offset, request))

        def _clone(r):
            c = TaskRequest(r.servable_name, args=r.args)
            c.tenant = r.tenant
            c.dispatch_tag = r.dispatch_tag
            return c

        def serve(use_scan):
            testbed, runtime = build_runtime(zoo, servables=("noop",))
            if use_scan:
                runtime._next_window = runtime._next_window_scan
            results = runtime.serve([(off, _clone(r)) for off, r in schedule])
            return [
                (r.request.tenant, r.request.dispatch_tag, r.completed_at)
                for r in results
            ]

        assert serve(use_scan=False) == serve(use_scan=True)


class TestIndexEdges:
    def test_gateway_tag_changes_rerank_the_window(self, zoo):
        """A lane whose head changes tag gets a fresh heap entry; the old
        one is skipped as stale, not served out of order."""
        testbed, runtime = build_runtime(
            zoo, servables=("noop",), max_coalesce_delay_s=0.0
        )
        now = testbed.clock.now()
        for tenant, tag in (("alpha", 5.0), ("beta", 1.0)):
            request = TaskRequest("noop", args=("x",))
            request.tenant = tenant
            request.dispatch_tag = tag
            runtime.submit(request)
        pick, _, _ = runtime._next_window(now)
        assert pick == servable_topic("noop", lane="tenant-beta")
        assert_agree(runtime, now)
        # Claim beta's head: alpha (tag 5.0) becomes the only window.
        runtime.queue.claim(pick)
        pick, _, _ = runtime._next_window(now)
        assert pick == servable_topic("noop", lane="tenant-alpha")
        assert_agree(runtime, now)

    def test_untagged_outranks_tagged(self, zoo):
        testbed, runtime = build_runtime(
            zoo, servables=("noop",), max_coalesce_delay_s=0.0
        )
        now = testbed.clock.now()
        tagged = TaskRequest("noop", args=("x",))
        tagged.tenant = "alpha"
        tagged.dispatch_tag = 0.0
        runtime.submit(tagged)
        runtime.submit(TaskRequest("noop", args=("x",)))  # untagged default lane
        pick, _, _ = runtime._next_window(now)
        assert pick == servable_topic("noop")
        assert_agree(runtime, now)

    def test_future_window_migrates_to_due(self, zoo):
        """A window indexed as future moves to the due heap when the
        clock passes its flush deadline — without any queue event."""
        testbed, runtime = build_runtime(
            zoo, servables=("noop",), max_coalesce_delay_s=0.5
        )
        runtime.submit(TaskRequest("noop", args=("x",)))
        now = testbed.clock.now()
        pick, _, next_event = runtime._next_window(now)
        assert pick is None
        assert next_event == pytest.approx(now + 0.5)
        assert_agree(runtime, now)
        testbed.clock.advance(0.5)
        later = testbed.clock.now()
        pick, _, _ = runtime._next_window(later)
        assert pick == servable_topic("noop")
        assert_agree(runtime, later)

    def test_no_live_host_hides_the_servable(self, zoo):
        testbed, runtime = build_runtime(
            zoo, servables=("noop",), n_workers=1, max_coalesce_delay_s=0.0
        )
        runtime.submit(TaskRequest("noop", args=("x",)))
        runtime.mark_down(runtime.workers[0].name)
        now = testbed.clock.now()
        assert runtime._next_window(now) == (None, None, math.inf)
        assert_agree(runtime, now)
        runtime.mark_up(runtime.workers[0].name)
        pick, _, _ = runtime._next_window(now)
        assert pick == servable_topic("noop")
        assert_agree(runtime, now)

    def test_future_windows_with_every_host_down_add_no_horizon(self, zoo):
        """A servable whose windows are all still open and whose hosts
        are all down is invisible: no pick, nothing on the horizon."""
        testbed, runtime = build_runtime(
            zoo, servables=("noop",), max_coalesce_delay_s=0.5
        )
        runtime.submit(TaskRequest("noop", args=("x",)))
        for worker in runtime.workers:
            runtime.mark_down(worker.name)
        now = testbed.clock.now()
        assert runtime._next_window(now) == (None, None, math.inf)
        assert_agree(runtime, now)
        for worker in runtime.workers:
            runtime.mark_up(worker.name)
        assert runtime._next_window(now) == (None, None, now + 0.5)
        assert_agree(runtime, now)

    def test_due_window_on_busy_hosts_waits_for_the_first_free(self, zoo):
        """A due window whose live hosts are all busy yields no topic,
        and the horizon is the earliest time one of them frees up."""
        testbed, runtime = build_fleet_runtime(zoo)
        now = testbed.clock.now()
        # One batch per host: each dispatch leaves its host busy.
        for tenant in ("a", "b", "c"):
            runtime.submit(TaskRequest("noop", args=("x",), tenant=tenant))
        for _ in runtime.workers:
            topic, host, _ = runtime._next_window(now)
            runtime._dispatch_topic(topic, host)
        runtime.submit(TaskRequest("noop", args=("x",)))
        free_at = [w.clock.now() for w in runtime.workers]
        assert min(free_at) > now
        assert runtime._next_window(now) == (None, None, min(free_at))
        assert_agree(runtime, now)
        topic, host, _ = runtime._next_window(min(free_at))
        assert topic == servable_topic("noop")
        assert host.clock.now() == min(free_at)
        assert_agree(runtime, min(free_at))

    def test_queue_depth_tracks_events_o1(self, zoo):
        """The listener-maintained depth equals the lane-scan answer
        through puts, claims, nacks, withdrawals, and restores."""
        testbed, runtime = build_runtime(zoo, servables=("noop",))

        def scan_depth():
            return sum(
                runtime.queue.ready_count(topic)
                for topic, (name, _) in runtime._owned_topics.items()
                if name == "noop"
            )

        for tenant in (None, "alpha", "beta", "alpha"):
            request = TaskRequest("noop", args=("x",))
            request.tenant = tenant
            runtime.submit(request)
            assert runtime.queue_depth("noop") == scan_depth()
        msg = runtime.queue.claim(servable_topic("noop", lane="tenant-alpha"))
        assert runtime.queue_depth("noop") == scan_depth() == 3
        runtime.queue.nack(msg.delivery_tag, requeue=True)
        assert runtime.queue_depth("noop") == scan_depth() == 4
        withdrawn = runtime.queue.withdraw_newest(
            servable_topic("noop", lane="tenant-beta"), n=1
        )
        assert runtime.queue_depth("noop") == scan_depth() == 3
        runtime.queue.restore(withdrawn[0])
        assert runtime.queue_depth("noop") == scan_depth() == 4

    def test_unowned_topics_stay_invisible(self, zoo):
        """Traffic on the shared queue outside the runtime's lanes (e.g.
        the MS sync lane) must not enter the indices."""
        testbed, runtime = build_runtime(zoo, servables=("noop",))
        runtime.queue.put(
            TaskRequest("noop", args=("x",)),
            topic=servable_topic("noop", lane="sync"),
        )
        runtime.queue.put(TaskRequest("noop", args=("x",)), topic="default")
        now = testbed.clock.now()
        assert runtime.queue_depth("noop") == 0
        assert runtime._next_window(now) == (None, None, math.inf)
        assert_agree(runtime, now)

    def test_direct_put_baselined_when_lane_appears(self, zoo):
        """Messages put straight onto a tenant topic before the runtime
        tracks that lane are folded in when the lane first appears."""
        testbed, runtime = build_runtime(zoo, servables=("noop",))
        topic = servable_topic("noop", lane="tenant-alpha")
        early = TaskRequest("noop", args=("x",))
        early.tenant = "alpha"
        runtime.queue.put(early, topic=topic)
        assert runtime.queue_depth("noop") == 0  # lane not tracked yet
        late = TaskRequest("noop", args=("x",))
        late.tenant = "alpha"
        runtime.submit(late)
        assert runtime.queue_depth("noop") == 2
        assert_agree(runtime, testbed.clock.now())

    def test_tenant_lanes_outlive_an_idle_spell(self, zoo):
        """A tenant lane lives as long as the runtime: after a minute of
        idle virtual time the same tenants submit straight onto the lanes
        they had, and the runtime's tenant topics stay the queue's."""
        testbed, runtime = build_runtime(zoo, servables=("noop",))
        tenants = [f"t{i}" for i in range(6)]

        def round_of_requests():
            return [(0.0, TaskRequest("noop", args=("x",), tenant=t)) for t in tenants]

        def tenant_topics(topics):
            return {t for t in topics if t.startswith("servable/tenant-") and t.endswith("/noop")}

        first = runtime.serve(round_of_requests())
        testbed.clock.advance_to(max(r.completed_at for r in first) + 60.0)
        with mock.patch.object(runtime, "_track_lane", wraps=runtime._track_lane) as track:
            second = runtime.serve(round_of_requests())
        assert len(first) == len(second) == len(tenants)
        track.assert_not_called()
        queue_topics = runtime.queue.dump_state()["topic_enqueued"]
        assert tenant_topics(runtime._owned_topics) == tenant_topics(queue_topics)
        assert len(tenant_topics(queue_topics)) == len(tenants)
