"""Request conservation on a plain stack, a journaled one, and under a
crash at every injection point (see ``conservation.py``)."""

from __future__ import annotations

import pytest

from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.durability import INJECTION_POINTS, CrashPlan, InMemoryDurableStore
from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable

from tests.durability.conftest import alternating_arrivals, build_chaos_harness

from .conservation import assert_conserved


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def gateway_stack(zoo, durable: bool):
    """Two tenants, one rate-limited so some offers are denied, over two
    own-clock workers; journaled when ``durable``."""
    testbed = build_testbed(jitter=False, memoize_tm=False)
    policies = TenantPolicyTable()
    tokens = {}
    for name, rate in (("alice", None), ("bob", 50.0)):
        policies.register(TenantPolicy(name=name, rate_limit_rps=rate, burst=4))
        identity, tokens[name] = testbed.new_user(name)
        policies.bind_identity(identity, name)
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(2)]
    gateway = testbed.enable_gateway(
        policies=policies,
        workers=workers,
        max_batch_size=8,
        durable_store=InMemoryDurableStore() if durable else None,
        snapshot_every_records=16,
    )
    published = testbed.management.publish(testbed.token, zoo["noop"])
    gateway.runtime.place(zoo["noop"], published.build.image, copies=2)
    return gateway, tokens


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "journaled"])
def test_a_served_schedule_conserves_its_requests(zoo, durable):
    gateway, tokens = gateway_stack(zoo, durable)
    arrivals = alternating_arrivals(tokens, n=60, rate_rps=300.0)
    records = gateway.serve(arrivals)
    assert any(not r.admitted for r in records) and any(r.completed for r in records)
    completed = sum(gateway.metrics.counters(t).completed for t in ("alice", "bob"))
    assert_conserved(
        [request for _, _, request in arrivals],
        records,
        gateway,
        dead_letters=gateway.runtime.queue.dead_letters,
        settles=completed,
    )
    if durable:
        assert gateway.journal.settled == completed


@pytest.mark.parametrize("point", INJECTION_POINTS)
def test_a_crash_at_every_injection_point_conserves_its_requests(zoo, point, monkeypatch):
    """Every record a crash made the harness rebuild settles keeping the
    uuid, tenant and arrival its request was first admitted with."""
    harness, tokens = build_chaos_harness(zoo, InMemoryDurableStore(), snapshot_every_records=16)
    first_admitted = {}
    enter = ServingGateway._enter

    def recording_enter(self, request, *args):
        record = enter(self, request, *args)
        first_admitted.setdefault(request.task_uuid, record)
        return record

    monkeypatch.setattr(ServingGateway, "_enter", recording_enter)
    arrivals = alternating_arrivals(tokens, n=40)
    outcome = harness.run(arrivals, plans=(CrashPlan(point, after_trips=3),))
    assert [crash.point for crash in outcome.crashes] == [point]
    records = [*outcome.settled.values(), *outcome.denied]
    assert_conserved(
        [request for _, _, request in arrivals],
        records,
        harness.gateway,
        dead_letters=harness.queue.dead_letters,
        settles=harness.journal.settled,
    )
    rebuilt = 0
    for uuid, record in outcome.settled.items():
        first = first_admitted[uuid]
        assert record.request.task_uuid == uuid
        assert record.request.tenant == first.request.tenant
        assert record.arrived_at == first.arrived_at
        rebuilt += record is not first
    assert rebuilt == outcome.recoveries[0]["restored_open"]


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "journaled"])
def test_a_dead_lettered_request_settles_failed(zoo, durable):
    """An admitted request whose claimed message is dropped to the
    dead-letter list settles failed through the gateway's settlement
    accounting: its open entry, WFQ slot, in-flight charge and journal
    entry all close, so recovery would not bring it back."""
    gateway, tokens = gateway_stack(zoo, durable)
    arrivals = alternating_arrivals(tokens, n=6, rate_rps=300.0)
    records = [gateway.offer(request, token=token) for _, token, request in arrivals]
    victim = records[0]
    queue = gateway.runtime.queue
    (claimed,) = queue.claim_many(victim.topic, 1)
    assert claimed is victim
    queue.nack(claimed.delivery_tag, requeue=False)
    gateway.runtime.drain()
    settled = sum(
        gateway.metrics.counters(t).completed + gateway.metrics.counters(t).failed
        for t in ("alice", "bob")
    )
    assert_conserved(
        [request for _, _, request in arrivals],
        records,
        gateway,
        dead_letters=queue.dead_letters,
        settles=settled,
    )
    assert victim.completed and not victim.ok
    assert gateway.metrics.counters(victim.request.tenant).failed == 1
    if durable:
        assert gateway.journal.settled == settled
