"""Pipeline chains admit all-or-nothing at the gateway.

With per-step admission, a rate-limited tenant's chain could pass steps
``1..k-1`` — burning fleet time and rate-limit tokens — and then fail
admission at step ``k``. Chains are now admitted up front with cost =
number of steps (``AdmissionController.admit(..., sequential=True)``):
a denial executes nothing, and a mid-chain *execution* failure leaves
nothing open behind it.
"""

import pytest

from repro.core.pipeline import Pipeline, PipelineStep
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.gateway import AdmissionRejected, TenantPolicy, TenantPolicyTable
from repro.gateway.admission import AdmissionOutcome


def deployment(policy: TenantPolicy):
    testbed = build_testbed(jitter=False)
    zoo = build_zoo(oqmd_entries=50, n_estimators=4)
    policies = TenantPolicyTable()
    policies.register(policy)
    policies.set_default(policy.name)
    gateway = testbed.enable_gateway(policies=policies, n_workers=2)
    for name in ("noop", "matminer_util", "matminer_featurize", "matminer_model"):
        published = testbed.management.publish(testbed.token, zoo[name])
        gateway.runtime.place(zoo[name], published.build.image)
    pipeline = Pipeline(
        name="featurize-predict",
        steps=[
            PipelineStep("matminer_featurize"),
            PipelineStep("matminer_model"),
        ],
    )
    testbed.management.register_pipeline(testbed.token, pipeline)
    return testbed, gateway


def assert_nothing_open(gateway, tenant):
    """No request of ``tenant`` is open, laned or holding a slot."""
    assert gateway._open == {}
    assert gateway.scheduler.outstanding_by_tenant[tenant] == 0
    assert gateway.scheduler.depth(tenant) == 0


class TestChainAdmission:
    def test_underfunded_chain_is_denied_before_step_one(self):
        """A drained bucket cannot afford a two-step chain: the denial
        is typed, and *no* chain step executes (nothing burned)."""
        testbed, gateway = deployment(
            TenantPolicy(name="lab", rate_limit_rps=0.001, burst=1)
        )
        # Spend the only token on a single request; the bucket is now
        # empty (and not full, so chain debt is unavailable).
        assert testbed.management.run(testbed.token, "matminer_featurize", "Fe2O3").ok
        with pytest.raises(AdmissionRejected) as exc:
            testbed.management.run_pipeline(
                testbed.token, "featurize-predict", "Fe2O3"
            )
        assert exc.value.decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        # Only the earlier single request ran — the chain burned nothing.
        assert gateway.runtime.items_served == 1
        assert_nothing_open(gateway, "lab")
        assert gateway.metrics.counters("lab").admitted == 1

    def test_funded_chain_runs_every_step(self):
        testbed, gateway = deployment(
            TenantPolicy(name="lab", rate_limit_rps=0.001, burst=2)
        )
        result = testbed.management.run_pipeline(
            testbed.token, "featurize-predict", "Fe2O3"
        )
        assert result.ok
        assert gateway.runtime.items_served == 2
        # Both steps settled on completion.
        assert_nothing_open(gateway, "lab")
        assert gateway.metrics.counters("lab").admitted == 2
        # The chain consumed exactly its cost: a third token does not
        # exist, so an immediate second chain is denied.
        with pytest.raises(AdmissionRejected):
            testbed.management.run_pipeline(
                testbed.token, "featurize-predict", "Fe2O3"
            )

    def test_chain_longer_than_burst_runs_at_the_sustained_rate(self):
        """A 2-step chain against burst=1 must not be denied forever:
        a full bucket pays the whole chain (going into debt), and the
        debt refills at the sustained rate before the next admission."""
        testbed, gateway = deployment(
            TenantPolicy(name="lab", rate_limit_rps=10.0, burst=1)
        )
        result = testbed.management.run_pipeline(
            testbed.token, "featurize-predict", "Fe2O3"
        )
        assert result.ok
        # The bucket is in debt: an immediate single request is denied.
        with pytest.raises(AdmissionRejected):
            testbed.management.run(testbed.token, "matminer_featurize", "Fe2O3")
        # After the debt refills (2 tokens spent - 1 burst = 1 token of
        # debt at 10 rps), the tenant serves again.
        testbed.clock.advance(1.0)
        assert testbed.management.run(
            testbed.token, "matminer_featurize", "Fe2O3"
        ).ok

    def test_a_chain_may_call_one_servable_twice(self):
        """Nothing counts a servable's multiplicity in a chain: a
        pipeline that runs the model twice is admitted whole, pays four
        tokens and settles every step."""
        testbed, gateway = deployment(
            # A rate so low that nothing refills during the run.
            TenantPolicy(name="lab", rate_limit_rps=1e-9, burst=5)
        )
        double = Pipeline(
            name="model-twice",
            steps=[
                PipelineStep("matminer_featurize"),
                PipelineStep("matminer_model", adapter=lambda _: "Fe2O3"),
                PipelineStep("matminer_featurize"),
                PipelineStep("matminer_model"),
            ],
        )
        testbed.management.register_pipeline(testbed.token, double)
        assert testbed.management.run_pipeline(
            testbed.token, "model-twice", "Fe2O3"
        ).ok
        assert gateway.runtime.items_served == 4
        assert gateway.tenant_admissions("matminer_model") == {"lab": 2}
        policy = gateway.policies.policy("lab")
        assert gateway.admission.bucket(policy).tokens == pytest.approx(1.0)
        assert_nothing_open(gateway, "lab")

    def test_back_to_back_chains_leave_nothing_charged(self):
        """A settled chain holds nothing that the next one meets: ten
        chains in a row are each admitted and run."""
        testbed, gateway = deployment(TenantPolicy(name="lab"))
        for _ in range(10):
            assert testbed.management.run_pipeline(
                testbed.token, "featurize-predict", "Fe2O3"
            ).ok
            assert_nothing_open(gateway, "lab")
        assert gateway.metrics.counters("lab").admitted == 20
        assert gateway.runtime.items_served == 20

    def test_mid_chain_failure_keeps_the_whole_chain_paid(self):
        """The chain was admitted whole, so its unexecuted tail's token
        stays spent: a failure refunds nothing."""
        testbed, gateway = deployment(
            TenantPolicy(name="lab", rate_limit_rps=1e-9, burst=5)
        )
        bad = Pipeline(
            name="bad-handoff",
            steps=[
                PipelineStep("matminer_featurize"),
                PipelineStep("noop"),
                PipelineStep("matminer_model"),
            ],
        )
        testbed.management.register_pipeline(testbed.token, bad)
        worker = gateway.runtime.hosts("noop")[0]
        for pod in worker.executors["parsl"]._pools["noop"].pods:
            pod.fail()
        result = testbed.management.run_pipeline(
            testbed.token, "bad-handoff", "Fe2O3"
        )
        assert not result.ok
        assert gateway.runtime.items_served == 2
        policy = gateway.policies.policy("lab")
        assert gateway.admission.bucket(policy).tokens == pytest.approx(2.0)
        assert gateway.metrics.counters("lab").admitted == 3
        assert_nothing_open(gateway, "lab")

    def test_mid_chain_failure_leaves_nothing_open(self):
        testbed, gateway = deployment(TenantPolicy(name="lab"))
        # An adapter that corrupts the intermediate makes step 2 fail at
        # execution time (not admission time).
        bad = Pipeline(
            name="bad-handoff",
            steps=[
                PipelineStep("matminer_featurize"),
                PipelineStep("noop"),
                PipelineStep("matminer_model"),
            ],
        )
        testbed.management.register_pipeline(testbed.token, bad)

        runtime = gateway.runtime
        worker = runtime.hosts("noop")[0]
        pool = worker.executors["parsl"]._pools["noop"]
        for pod in pool.pods:
            pod.fail()
        result = testbed.management.run_pipeline(
            testbed.token, "bad-handoff", "Fe2O3"
        )
        assert not result.ok
        # Step 1 settled, step 2 failed-and-settled, step 3 never ran:
        # it holds no lane entry or slot, so nothing is left to refund.
        assert gateway.runtime.items_served == 2
        assert_nothing_open(gateway, "lab")
        # The tenant's next chain is admitted and runs.
        assert testbed.management.run_pipeline(
            testbed.token, "featurize-predict", "Fe2O3"
        ).ok
