"""The journal's work for one fixed gateway schedule, pinned as counts.

A count moves only when the code does, never with the host: records
appended and snapshots taken are exact, and the bytes a request costs
on the store are bounded below what format 5, the JSON text format,
wrote for this schedule: 344.9 per request. Format 6 writes 273.5."""

from __future__ import annotations

from repro.durability import InMemoryDurableStore

from .conftest import build_chaos_harness, request

N_REQUESTS = 400
FORMAT_5_BYTES_PER_REQUEST = 344.905


class CountingStore(InMemoryDurableStore):
    """An in-memory store that also sums the bytes appended to it."""

    def __init__(self) -> None:
        super().__init__()
        self.bytes_appended = 0

    def append(self, seq: int, record) -> None:
        self.bytes_appended += len(record)
        super().append(seq, record)


def test_one_schedule_appends_pinned_records_and_snapshots(chaos_zoo):
    # Two tenants at 800 rps over two workers: past their pace,
    # so lanes keep most requests (standalone admits) and batches form.
    store = CountingStore()
    harness, tokens = build_chaos_harness(chaos_zoo, store, snapshot_every_records=64)
    alice, bob = tokens.values()
    arrivals = [(i / 800.0, (alice, bob)[i % 2], request(i)) for i in range(N_REQUESTS)]
    outcome = harness.run(arrivals)
    assert outcome.exactly_once and len(outcome.settled) == N_REQUESTS

    journal = harness.journal
    assert (journal.records_appended, journal.snapshots_taken) == (878, 13)
    assert store.appends == journal.records_appended
    assert store.bytes_appended / N_REQUESTS < FORMAT_5_BYTES_PER_REQUEST
