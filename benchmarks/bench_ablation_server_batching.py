"""Ablation bench: server-side vs client-side batch formation.

Runs :mod:`repro.bench.server_batching`: the same open-loop arrival
schedule served unbatched, client-batched, and server-coalesced.

Expected: at high arrival rates server coalescing beats unbatched
dispatch on virtual-clock throughput by a wide margin and matches the
client-batched optimum; at low rates it tracks the offered load while
adding at most the coalesce window to latency — unlike client batching,
which must sit on requests until a whole batch has arrived.
"""

import pytest
from conftest import run_once

from repro.bench.report import render, write
from repro.bench.server_batching import (
    ARRIVAL_RATES_RPS,
    COALESCE_DELAY_S,
    run_experiment,
)


@pytest.mark.fast
def test_ablation_server_batching(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("server_batching", report)

    # Rows come in ARRIVAL_RATES_RPS order, which is ascending.
    rows = list(report["rates"].values())
    low, high = rows[0], rows[-1]
    low_rps = min(ARRIVAL_RATES_RPS)
    # At high arrival rates, server-side coalescing beats unbatched
    # dispatch on throughput by a wide margin...
    assert (
        high["server_coalesced"]["throughput_rps"]
        > 2.0 * high["unbatched"]["throughput_rps"]
    )
    # ...and stays within a whisker of the client-batched optimum.
    assert (
        high["server_coalesced"]["throughput_rps"]
        > 0.9 * high["client_batched"]["throughput_rps"]
    )
    # Overload grows the coalesced batches; offered-load tracking keeps
    # them small when the fleet keeps up.
    assert high["server_coalesced"]["mean_batch_size"] > 10
    assert low["server_coalesced"]["mean_batch_size"] < 5
    # At low rates every policy sustains the offered load...
    for policy in ("unbatched", "client_batched", "server_coalesced"):
        assert low[policy]["throughput_rps"] > 0.9 * low_rps
    # ...but client batching must wait for whole batches to arrive, while
    # the server window costs at most the coalesce delay.
    assert (
        low["server_coalesced"]["median_latency_ms"]
        <= low["unbatched"]["median_latency_ms"]
        + 1.5 * COALESCE_DELAY_S * 1e3
    )
    assert (
        low["client_batched"]["median_latency_ms"]
        > 5.0 * low["server_coalesced"]["median_latency_ms"]
    )
