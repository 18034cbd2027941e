"""Integration tests asserting the paper's quantitative claims (SS V).

These are the reproduction's acceptance tests: each test quotes a claim
from the evaluation section and checks it on the simulated deployment
(reduced request counts keep them fast; the full-protocol versions live
in benchmarks/).
"""

import pytest

from repro.bench.workloads import build_context
from repro.core.zoo import ZOO_NAMES


@pytest.fixture(scope="module")
def ctx():
    return build_context(servables=ZOO_NAMES, seed=0, jitter=False, memoize=False)


@pytest.fixture(scope="module")
def ctx_memo():
    return build_context(servables=ZOO_NAMES, seed=0, jitter=False, memoize=True)


class TestSectionVB1:
    """'DLHub can serve requests to run models in less than 40 ms and
    Python-based test functions in less than 20 ms' (SS I / SS V-B1)."""

    def test_noop_invocation_under_20ms(self, ctx):
        result = ctx.run_fixed("noop")
        assert result.invocation_time * 1e3 < 20.0

    def test_model_invocations_under_40ms(self, ctx):
        for name in ("inception", "cifar10", "matminer_model"):
            result = ctx.run_fixed(name)
            assert result.invocation_time * 1e3 < 40.0, name

    def test_tier_ordering_all_servables(self, ctx):
        for name in ZOO_NAMES:
            r = ctx.run_fixed(name)
            assert r.inference_time < r.invocation_time < r.request_time, name

    def test_overhead_band_10_20ms(self, ctx):
        """'In most cases, costs are around 10-20ms' — invocation minus
        inference, per servable."""
        gaps = []
        for name in ZOO_NAMES:
            r = ctx.run_fixed(name)
            gaps.append((r.invocation_time - r.inference_time) * 1e3)
        in_band = [g for g in gaps if 5.0 <= g <= 20.0]
        assert len(in_band) >= len(gaps) - 1  # "in most cases"

    def test_image_models_pay_transfer_overhead(self, ctx):
        """'higher overheads associated with Inception and CIFAR-10 are due
        to their need to transfer substantial input data'."""
        inception = ctx.run_fixed("inception")
        noop = ctx.run_fixed("noop")
        inception_gap = inception.request_time - inception.invocation_time
        noop_gap = noop.request_time - noop.invocation_time
        assert inception_gap > noop_gap


class TestSectionVB2:
    """Memoization reduces invocation 95.3-99.8% and request 24.3-95.4%."""

    def test_invocation_reduction_in_range(self, ctx, ctx_memo):
        for name in ZOO_NAMES:
            baseline = ctx.run_fixed(name).invocation_time
            ctx_memo.run_fixed(name)  # warm
            memoized = ctx_memo.run_fixed(name)
            assert memoized.cache_hit, name
            reduction = 100 * (1 - memoized.invocation_time / baseline)
            assert 93.0 <= reduction <= 99.9, f"{name}: {reduction:.1f}%"

    def test_request_reduction_in_range(self, ctx, ctx_memo):
        for name in ZOO_NAMES:
            baseline = ctx.run_fixed(name).request_time
            memoized = ctx_memo.run_fixed(name)
            reduction = 100 * (1 - memoized.request_time / baseline)
            assert 24.0 <= reduction <= 95.5, f"{name}: {reduction:.1f}%"

    def test_memoized_invocation_1ms_class(self, ctx_memo):
        """'With memoization enabled, DLHub provides extremely low
        invocation times (1ms)'."""
        ctx_memo.run_fixed("inception")
        hit = ctx_memo.run_fixed("inception")
        assert hit.invocation_time * 1e3 <= 1.5


class TestSectionVB3:
    """Batching amortizes overheads; invocation ~linear in request count."""

    def test_batching_beats_sequential(self, ctx):
        fixed = ctx.fixed_input("cifar10")
        n = 20
        sequential = sum(
            r.invocation_time for r in ctx.run_sequential("cifar10", n)
        )
        batch = ctx.client.management.run_batch(
            ctx.client.token, "cifar10", [fixed] * n
        )
        assert batch.invocation_time < sequential

    def test_linearity_in_batch_size(self, ctx):
        import numpy as np

        executor = ctx.testbed.parsl_executor
        fixed = ctx.fixed_input("noop")
        xs = [10, 50, 100, 200]
        ys = [
            executor.invoke_batch("noop", [(fixed, {})] * n).invocation_time for n in xs
        ]
        slope, intercept = np.polyfit(xs, ys, 1)
        predicted = np.polyval([slope, intercept], xs)
        ss_res = float(((np.array(ys) - predicted) ** 2).sum())
        ss_tot = float(((np.array(ys) - np.mean(ys)) ** 2).sum())
        assert 1 - ss_res / ss_tot > 0.999


class TestSectionVB4:
    """Throughput scales with replicas, then saturates (Fig. 7)."""

    def test_inception_scales_to_about_15_replicas(self, ctx):
        executor = ctx.testbed.parsl_executor
        fixed = ctx.fixed_input("inception")
        workload = [fixed] * 400

        def throughput(replicas):
            executor.scale("inception", replicas)
            return len(workload) / executor.submit_stream("inception", workload)

        t1, t10, t15, t25 = (throughput(r) for r in (1, 10, 15, 25))
        assert t10 > 5 * t1  # strong early scaling
        assert t15 > 1.2 * t10  # still gaining at 10 -> 15
        assert t25 < 1.25 * t15  # diminishing beyond ~15

    def test_lighter_servables_saturate_earlier(self, ctx):
        executor = ctx.testbed.parsl_executor
        fixed = ctx.fixed_input("matminer_featurize")
        workload = [fixed] * 400

        def throughput(replicas):
            executor.scale("matminer_featurize", replicas)
            return len(workload) / executor.submit_stream(
                "matminer_featurize", workload
            )

        t10, t15 = throughput(10), throughput(15)
        assert t15 < 1.1 * t10  # featurize already dispatch-bound by 10


class TestSectionVB5:
    """Serving comparison orderings (Fig. 8), asserted on invocations."""

    def test_tfserving_beats_dlhub_without_memo(self, ctx):
        testbed = ctx.testbed
        executor = testbed.tfserving_executor("grpc")
        executor.deploy(ctx.zoo["cifar10"], None)
        tfs = executor.invoke("cifar10", ctx.fixed_input("cifar10"), {})
        dlhub = ctx.run_fixed("cifar10")
        assert tfs.invocation_time < dlhub.invocation_time

    def test_dlhub_memo_beats_clipper_memo(self, ctx_memo):
        testbed = ctx_memo.testbed
        clipper = testbed.clipper_backend(memoization=True)
        from repro.serving.base import ModelSpec

        spec = ModelSpec.from_calibration(
            "cifar10", "cifar10", ctx_memo.zoo["cifar10"].handler
        )
        clipper.deploy(spec)
        fixed = ctx_memo.fixed_input("cifar10")
        clipper.invoke("cifar10", *fixed)  # warm
        clipper_hit = clipper.invoke("cifar10", *fixed)
        ctx_memo.run_fixed("cifar10")  # warm
        dlhub_hit = ctx_memo.run_fixed("cifar10")
        assert clipper_hit.cache_hit and dlhub_hit.cache_hit
        assert dlhub_hit.invocation_time < clipper_hit.invocation_time
