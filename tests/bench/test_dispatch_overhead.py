"""The dispatch-overhead microbench drives the serve loop's private
phases by hand, so it must keep up with their signatures: run it at the
CI smoke's sizes and check the index still picks what the scan picks."""

from repro.bench.dispatch_overhead import run_experiment


def test_smoke_sizes_run_and_picks_match_the_scan():
    report = run_experiment(
        sizes=(10, 100),
        scan_sizes=(10, 100),
        decisions=50,
        repeats=1,
        check_size=100,
        trace_sizes=(100,),
        trace_cycles=30,
    )
    assert report["picks_identical"]
    (trace_row,) = report["tracing"]
    assert trace_row["on_per_cycle_us"] > 0
