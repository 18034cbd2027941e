"""The observability loop's work per scrape, pinned as counts.

A count moves only when the code does, never with the host. With only
burn-rate rules attached no reader declares a ``src:`` series, so a
scrape pulls no hub source, and each scrape writes one burn gauge per
monitored tenant plus one sample-rate point per active sampler
override — nothing else."""

from __future__ import annotations

from collections import Counter

from repro.core.obsloop import BurnRateRule, ObservabilityLoop, SeriesStore
from repro.core.telemetry import TelemetryHub

from .test_obsloop import serve_full_stack


class CountingStore(SeriesStore):
    """A series store that also counts the samples written to it."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def record(self, series: str, time_s: float, value: float) -> None:
        self.writes += 1
        super().record(series, time_s, value)


def test_burn_rules_alone_pull_no_source_and_write_only_gauges(monkeypatch):
    calls: Counter = Counter()
    register = TelemetryHub.register_source

    def counting_register(hub, name, source):
        def counted():
            calls[name] += 1
            return source()

        register(hub, name, counted)

    per_scrape = []
    scrape = ObservabilityLoop.scrape

    def counted_scrape(loop, now):
        before = loop.store.writes
        scrape(loop, now)
        expected = len(loop.monitor.tenants()) + len(loop.sampler.rates())
        per_scrape.append((loop.store.writes - before, expected))

    monkeypatch.setattr(TelemetryHub, "register_source", counting_register)
    monkeypatch.setattr(ObservabilityLoop, "scrape", counted_scrape)
    rules = [
        BurnRateRule(f"burn:{tenant}", tenant, fast_window_s=0.3, slow_window_s=1.0)
        for tenant in ("a", "b")
    ]
    stack = serve_full_stack(store=CountingStore(), rules=rules, sampler=True)

    assert calls == Counter()
    # The counters are live: a snapshot calls each of the seven once.
    assert len(stack.hub.snapshot()["sources"]) == 7 and sum(calls.values()) == 7
    scrapes = stack.loop.scrapes
    assert scrapes > 10 and len(per_scrape) == scrapes
    assert [writes for writes, expected in per_scrape] == [
        expected for writes, expected in per_scrape
    ]
    # The loop was hot: burn alerts fired and the sampler overrode.
    assert max(expected for _, expected in per_scrape) == 4
