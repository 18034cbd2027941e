"""Durability for the serving stack: write-ahead journal + snapshots.

The serving data plane (:class:`~repro.messaging.queue.TaskQueue`,
:class:`~repro.gateway.gateway.ServingGateway`) is pure in-memory
state — a runtime restart mid-traffic silently loses every admitted
request. This package makes that state durable and *recoverable*:

* :mod:`repro.durability.codec` — CRC-framed journal records and
  snapshot documents, and the request-body pickle codec;
* :mod:`repro.durability.store` — the pluggable :class:`DurableStore`
  contract (in-memory default, file-backed for chaos tests);
* :mod:`repro.durability.state` — :class:`SystemState`, the replayable
  fold over journal records (also the snapshot format);
* :mod:`repro.durability.journal` — :class:`Journal`, the write-ahead
  log, with snapshots of the live state written at a gateway tick;
* :mod:`repro.durability.recovery` — rebuild queue + gateway state from
  snapshot + journal after a crash;
* :mod:`repro.durability.chaos` — deterministic fault injection
  (:class:`FaultInjector`) and the kill/restart loop
  (:class:`ChaosHarness`) that proves exactly-once settlement.
"""

from repro.durability.chaos import (
    INJECTION_POINTS,
    ChaosHarness,
    ChaosOutcome,
    CrashPlan,
    FaultInjector,
    SimulatedCrash,
)
from repro.durability.codec import JournalCorruption, decode_body, encode_body
from repro.durability.journal import Journal
from repro.durability.recovery import (
    RecoveryReport,
    begin_recovery,
    gateway_restore_entries,
    load_state,
    materialize_queue,
    plan_recover,
)
from repro.durability.state import SystemState
from repro.durability.store import (
    DurableStore,
    FileDurableStore,
    InMemoryDurableStore,
    StoreCorruption,
)

__all__ = [
    "INJECTION_POINTS",
    "ChaosHarness",
    "ChaosOutcome",
    "CrashPlan",
    "DurableStore",
    "FaultInjector",
    "FileDurableStore",
    "InMemoryDurableStore",
    "Journal",
    "JournalCorruption",
    "RecoveryReport",
    "SimulatedCrash",
    "StoreCorruption",
    "SystemState",
    "begin_recovery",
    "decode_body",
    "encode_body",
    "gateway_restore_entries",
    "load_state",
    "materialize_queue",
    "plan_recover",
]
