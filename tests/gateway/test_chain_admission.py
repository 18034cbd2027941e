"""Pipeline chains admit all-or-nothing at the gateway.

With per-step admission, a rate-limited tenant's chain could pass steps
``1..k-1`` — burning fleet time and rate-limit tokens — and then fail
admission at step ``k``. Chains are now admitted up front with cost =
number of steps (``AdmissionController.admit(..., sequential=True)``):
a denial executes nothing, and a mid-chain *execution* failure refunds
the unexecuted tail's in-flight charges.
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
        assert gateway.admission.in_flight("lab") == 0
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
        # Both steps' ledger charges settled on completion.
        assert gateway.admission.in_flight("lab") == 0
        assert gateway.metrics.counters("lab").admitted == 2
        # The chain consumed exactly its cost: a third token does not
        # exist, so an immediate second chain is denied.
        with pytest.raises(AdmissionRejected):
            testbed.management.run_pipeline(
                testbed.token, "featurize-predict", "Fe2O3"
            )

    def test_chain_checks_in_flight_cap_up_front(self):
        testbed, gateway = deployment(
            TenantPolicy(
                name="lab", max_in_flight=1, rate_limit_rps=0.001, burst=5
            )
        )
        with pytest.raises(AdmissionRejected) as exc:
            testbed.management.run_pipeline(
                testbed.token, "featurize-predict", "Fe2O3"
            )
        assert (
            exc.value.decision.outcome is AdmissionOutcome.REJECTED_MAX_IN_FLIGHT
        )
        assert gateway.runtime.items_served == 0
        # A denial further down the check chain burns no rate-limit
        # tokens: the full burst is still available.
        policy = gateway.policies.policy("lab")
        assert gateway.admission.bucket(policy).tokens == pytest.approx(5.0)

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

    def test_chain_checks_servable_quota_with_multiplicity(self):
        testbed, gateway = deployment(
            TenantPolicy(name="lab", servable_quotas={"matminer_model": 1})
        )
        # Quota 1 on the model step: a single chain fits...
        assert testbed.management.run_pipeline(
            testbed.token, "featurize-predict", "Fe2O3"
        ).ok
        # ...but a pipeline hitting that servable twice does not.
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
        with pytest.raises(AdmissionRejected) as exc:
            testbed.management.run_pipeline(testbed.token, "model-twice", "Fe2O3")
        assert (
            exc.value.decision.outcome is AdmissionOutcome.REJECTED_SERVABLE_QUOTA
        )

    def test_mid_chain_failure_refunds_unexecuted_tail(self):
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
        # Step 1 settled, step 2 failed-and-settled, step 3 never ran —
        # and its up-front in-flight charge was refunded, not leaked.
        assert gateway.admission.in_flight("lab") == 0
        assert gateway.admission.in_flight("lab", "matminer_model") == 0
