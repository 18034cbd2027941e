"""Request conservation, stated once: what must hold after any serve.

:func:`assert_conserved` is the first piece of a checker meant to run
on every scenario: offered requests are conserved (each ends in exactly
one record in one terminal state — denied, settled or dead-lettered —
and none settles twice), and at quiescence every open-admission table
and every charge ledger is back to empty. :func:`assert_ledgers_agree`
states how the gateway's open-request counts relate at any moment
between two serve-loop hooks.
"""

from __future__ import annotations

from collections import defaultdict


def assert_conserved(offered, records, gateway, dead_letters=(), settles=None):
    """Assert conservation over one served schedule.

    ``offered`` are the offered ``TaskRequest`` objects; ``records`` is
    every record observed for them, across incarnations when a crash
    restarted the stack (a record a crash left open is no terminal
    state: recovery rebuilt its request's record). ``gateway`` is the
    quiesced gateway — the last incarnation's. ``dead_letters`` are the
    queue messages dropped from circulation. ``settles`` is how many
    settlements were counted where each is counted once (the journal's
    settle count, or the gateway's completion counters): it must equal
    the number of settled requests, so no record settled twice.
    """
    dead = {message.body.task_uuid for message in dead_letters}
    terminal: dict[str, list[tuple[str, object]]] = defaultdict(list)
    for record in records:
        uuid = record.request.task_uuid
        if not record.admitted:
            terminal[uuid].append(("denied", record))
        elif record.completed:
            terminal[uuid].append(("settled", record))
        elif uuid in dead:
            terminal[uuid].append(("dead-lettered", record))
    uuids = [request.task_uuid for request in offered]
    assert set(terminal) <= set(uuids), "a record for a request nobody offered"
    for uuid in uuids:
        states = terminal.get(uuid, [])
        assert len(states) == 1, f"{uuid} ends in {[s for s, _ in states] or 'no state'}"
    settled = sum(1 for states in terminal.values() if states[0][0] == "settled")
    if settles is not None:
        assert settles == settled, f"{settles} settlements for {settled} settled requests"

    # Quiescence: nothing open, no slot held, nothing queued.
    assert_ledgers_agree(gateway)
    assert gateway._open == {}
    journal = gateway.journal
    if journal is not None:
        assert journal._open == {} and journal._held == {}
    scheduler = gateway.scheduler
    assert len(scheduler) == 0 and scheduler.outstanding == 0
    assert not any(scheduler.outstanding_by_tenant.values())
    for tenant in gateway.policies.tenants():
        assert scheduler.outstanding_by_tenant.get(tenant, 0) == 0
        assert scheduler.depth(tenant) == 0
    runtime = gateway.runtime
    assert runtime._adopted == {}
    assert len(runtime.queue) == 0 and runtime.queue.inflight_count == 0


def assert_ledgers_agree(gateway):
    """Assert that the gateway's open-request counts agree: every open
    request is laned or released, the released total is the sum of the
    per-tenant counts, and the lanes' per-servable counts add up to what
    the lanes hold. Holds whenever no door call is under way."""
    scheduler = gateway.scheduler
    laned = len(scheduler)
    assert len(gateway._open) == laned + gateway.outstanding
    assert gateway.outstanding == sum(scheduler.outstanding_by_tenant.values())
    assert sum(gateway.queued_count(name) for name in gateway.runtime.placement()) == laned
