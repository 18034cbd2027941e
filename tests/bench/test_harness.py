"""Unit tests for the experiment harnesses (reduced sizes — structure and
shape checks; the full-protocol runs live in benchmarks/)."""

import pytest

from repro.bench.workloads import build_context, percentile_row


@pytest.fixture(scope="module")
def small_ctx():
    return build_context(
        servables=("noop", "cifar10", "matminer_featurize"),
        seed=0,
        jitter=False,
        memoize=False,
    )


class TestWorkloads:
    def test_context_deploys_requested_servables(self, small_ctx):
        assert small_ctx.deployed == ["noop", "cifar10", "matminer_featurize"]
        assert set(small_ctx.testbed.task_manager.registered_servables()) == set(
            small_ctx.deployed
        )

    def test_run_sequential_counts(self, small_ctx):
        records = small_ctx.run_sequential("noop", 5)
        assert len(records) == 5
        assert all(r.ok for r in records)

    def test_fixed_input_stable(self, small_ctx):
        import numpy as np

        a = small_ctx.fixed_input("cifar10")
        b = small_ctx.fixed_input("cifar10")
        assert np.array_equal(a[0], b[0])

    def test_percentile_row(self):
        row = percentile_row([1.0, 2.0, 3.0, 4.0, 5.0])
        assert row["median_ms"] == 3.0
        assert row["n"] == 5
        assert row["p5_ms"] <= row["median_ms"] <= row["p95_ms"]

    def test_clear_caches(self, small_ctx):
        cache = small_ctx.testbed.task_manager.cache
        cache.store(cache.make_key(("x", (), ())), 1)
        small_ctx.clear_caches()
        assert len(small_ctx.testbed.task_manager.cache) == 0


class TestFig3Harness:
    def test_structure(self, small_ctx):
        from repro.bench.fig3_servables import run_experiment
        from repro.bench.report import render

        results = run_experiment(
            n_requests=5, servables=("noop", "cifar10"), context=small_ctx
        )
        assert set(results) == {"noop", "cifar10"}
        for metrics in results.values():
            assert set(metrics) == {
                "inference_time",
                "invocation_time",
                "request_time",
            }
            for row in metrics.values():
                assert row["n"] == 5
        report = render(results)
        assert "noop" in report and "cifar10" in report


class TestFig4Harness:
    def test_reductions_computed(self):
        from repro.bench.fig4_memoization import run_experiment

        results = run_experiment(n_requests=5, servables=("noop",))
        data = results["noop"]
        assert data["reduction_pct"]["invocation_time"] > 50
        assert 0 < data["reduction_pct"]["request_time"] < 100


class TestFig5And6Harness:
    def test_fig5_series_shape(self, small_ctx):
        from repro.bench.fig5_batching import run_experiment

        results = run_experiment(
            request_counts=(1, 5, 10),
            servables=("noop",),
            context=small_ctx,
        )
        series = results["noop"]
        assert set(series["unbatched"]) == {1, 5, 10}
        assert series["batched"][10] < series["unbatched"][10]

    def test_fig6_linearity(self, small_ctx):
        from repro.bench.fig6_batch_scaling import run_experiment

        results = run_experiment(
            request_counts=(10, 50, 100),
            servables=("noop",),
            context=small_ctx,
        )
        assert results["noop"]["r_squared"] > 0.99
        assert results["noop"]["slope_ms_per_request"] > 0


class TestFig7Harness:
    def test_saturation_detected(self, small_ctx):
        from repro.bench.fig7_scalability import run_experiment

        results = run_experiment(
            n_inferences=300,
            replica_counts=(1, 4, 10, 20),
            servables=("cifar10",),
            context=small_ctx,
        )
        data = results["cifar10"]
        assert data["saturation_replicas"] in (1, 4, 10, 20)
        assert data["peak_throughput_rps"] > 0
        assert len(data["makespan_s"]) == 4


class TestFleetAutoscalingHarness:
    def test_controlled_arms_measure_makespan_at_serve_end(self):
        """The post-traffic cooldown (20 reconciles, 5 s) is not part of
        a controlled arm's makespan or throughput."""
        from repro.bench.fleet_autoscaling import run_drain_experiment, run_experiment

        for report in (run_experiment(), run_drain_experiment()):
            schedule_s = sum(duration for _, duration in report["params"]["phases"])
            controlled = {
                arm: row for arm, row in report["arms"].items() if "drain_complete_s" in row
            }
            assert len(controlled) == 2
            for arm, row in controlled.items():
                assert row["makespan_s"] < schedule_s + 1.0, arm
                assert row["throughput_rps"] == row["served"] / row["makespan_s"], arm


class TestTablesHarness:
    def test_tables_render(self):
        from repro.bench.tables import render_table1, render_table2

        assert "DLHub" in render_table1() and "DLHub" in render_table2()
