"""Chaos-proof serving: crash at spike peak, settle everything anyway.

Runs :mod:`repro.bench.chaos_recovery`: two tenants offer a phased
schedule (quiet -> ~6.7x spike -> tail) against a journaled stack; the
chaos arm kills the process at the ``mid_batch`` boundary (work done,
nothing acked — the worst spot) at the middle of the spike, pays the
modelled restart downtime, and recovers from the write-ahead journal.

Expected (the durability layer's end-to-end acceptance):

1. 100% settlement, exactly once, in both arms — the crash loses no
   admitted request and replays none into a double settlement;
2. the crash landed inside the spike window at the armed boundary and
   one recovery restored the open requests;
3. the chaos arm's p99 exceeds the steady arm's by at most the restart
   downtime plus the re-serve slack.

Results land in ``BENCH_chaos_recovery.json`` (virtual-time, so the
full two-arm run is bit-for-bit deterministic).
"""

import pytest
from conftest import run_once

from repro.bench.chaos_recovery import (
    CRASH_POINT,
    P99_PENALTY_SLACK_S,
    RESTART_COST_S,
    run_experiment,
    spike_window,
)
from repro.bench.report import render, write


def _check_recovered(report: dict) -> None:
    """Assertions shared by the smoke and full runs."""
    steady = report["arms"]["steady"]
    chaos = report["arms"]["chaos"]

    # Both arms served the identical offered schedule, settling every
    # request exactly once — no losses, no duplicates.
    assert steady["requests"] == chaos["requests"]
    for arm in (steady, chaos):
        assert arm["exactly_once"]
        assert arm["duplicates"] == 0
        assert arm["settled"] == arm["requests"]
        assert arm["denied"] == 0

    # The steady arm never crashed; the chaos arm crashed exactly once,
    # at the armed boundary, inside the spike window.
    assert steady["crashes"] == [] and steady["incarnations"] == 1
    assert chaos["incarnations"] == 2
    (crash,) = chaos["crashes"]
    assert crash["point"] == CRASH_POINT
    spike_start, spike_end = spike_window()
    assert spike_start <= crash["at_s"] <= spike_end

    # One recovery, and it had real work to do: open requests restored,
    # claimed-but-unsettled deliveries released back to their topics.
    (recovery,) = chaos["recoveries"]
    assert recovery["restored_open"] > 0
    assert recovery["released"] > 0

    # Bounded tail penalty: at most one restart downtime plus the
    # re-serve slack.
    bound_s = RESTART_COST_S + P99_PENALTY_SLACK_S
    assert 0.0 <= report["p99_penalty_s"] <= bound_s


@pytest.mark.fast
def test_chaos_recovery_smoke(benchmark):
    """CI smoke: the full two-arm kill/recover scenario (virtual time
    keeps it to a few wall-clock seconds)."""
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    _check_recovered(report)


def test_chaos_recovery_full(benchmark):
    report = run_once(benchmark, run_experiment)
    print("\n" + render(report))
    write("chaos_recovery", report)
    _check_recovered(report)
