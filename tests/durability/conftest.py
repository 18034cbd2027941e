"""Shared chaos-harness construction for the durability suite."""

from __future__ import annotations

import pytest

from repro.core.tasks import TaskRequest
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.durability import ChaosHarness
from repro.durability.codec import decode_record
from repro.gateway import TenantPolicy, TenantPolicyTable


@pytest.fixture(scope="session")
def chaos_zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def build_chaos_harness(
    zoo,
    store,
    tenants=("alice", "bob"),
    n_workers=2,
    snapshot_every_records=256,
    max_batch_size=8,
    **harness_kwargs,
):
    """Testbed + two-tenant policy table + a ChaosHarness over ``store``.

    Returns ``(harness, tokens)`` with one bearer token per tenant.
    """
    testbed = build_testbed(jitter=False, memoize_tm=False)
    policies = TenantPolicyTable()
    tokens = {}
    for username in tenants:
        policy = TenantPolicy(name=username)
        policies.register(policy)
        identity, token = testbed.new_user(username)
        policies.bind_identity(identity, policy.name)
        tokens[username] = token
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]
    published = testbed.management.publish(testbed.token, zoo["noop"])
    harness = ChaosHarness(
        clock=testbed.clock,
        auth=testbed.auth,
        policies=policies,
        workers=workers,
        placements=[
            {
                "servable": zoo["noop"],
                "image": published.build.image,
                "copies": n_workers,
            }
        ],
        store=store,
        snapshot_every_records=snapshot_every_records,
        runtime_kwargs={
            "max_batch_size": max_batch_size,
            "max_coalesce_delay_s": 0.005,
        },
        **harness_kwargs,
    )
    return harness, tokens


def alternating_arrivals(tokens, n=30, rate_rps=200.0, servable="noop"):
    """An open-loop schedule alternating between the given tenants."""
    toks = list(tokens.values())
    return [
        (i / rate_rps, toks[i % len(toks)], TaskRequest(servable, args=(i,)))
        for i in range(n)
    ]


def request(i, servable="noop", **fields):
    """A body for tests that drive a journaled queue directly: only a
    ``TaskRequest`` is journaled. Its ids are explicit, so building one
    moves no task counter."""
    return TaskRequest(servable, args=(i,), task_uuid=f"req-{i}", sequence=i, **fields)


def snapshot_if_due(journal, queue):
    """What the gateway's ``on_tick`` does at a boundary, for tests that
    drive a journaled queue without a gateway: write the snapshot if
    one is due."""
    if journal.snapshot_due:
        journal.snapshot_now(queue)


def journal_records(store, op):
    """The ``data`` of every ``op`` record on the store's journal, in order."""
    return [
        data
        for _, rec_op, data in map(decode_record, store.read_journal())
        if rec_op == op
    ]
