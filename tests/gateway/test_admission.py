"""Unit tests: admission control decisions."""

import pytest

from repro.gateway.admission import AdmissionController, AdmissionOutcome
from repro.gateway.policy import TenantPolicy
from repro.sim.clock import VirtualClock


def controller():
    return AdmissionController(VirtualClock())


class TestAdmit:
    def test_unlimited_policy_always_admits(self):
        ctrl = controller()
        policy = TenantPolicy(name="t")
        for _ in range(100):
            assert ctrl.admit(policy, ("noop",), lane_depth=0).admitted
        assert ctrl.metrics.counters("t").admitted == 100

    def test_rate_limit_denial_is_typed_and_metered(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=10.0, burst=2)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert ctrl.admit(policy, ("noop",), 0).admitted
        decision = ctrl.admit(policy, ("noop",), 0)
        assert decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        assert not decision.admitted
        # The denial is metered as a denial, not an admission.
        assert ctrl.metrics.counters("t").admitted == 2
        assert ctrl.metrics.counters("t").denied == {"rejected_rate_limit": 1}

    def test_rate_limit_refills_on_virtual_time(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=10.0, burst=1)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert not ctrl.admit(policy, ("noop",), 0).admitted
        ctrl.clock.advance(0.1)
        assert ctrl.admit(policy, ("noop",), 0).admitted

    def test_lane_full_sheds_before_spending_tokens(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=1.0, burst=1, max_queued=3)
        decision = ctrl.admit(policy, ("noop",), lane_depth=3)
        assert decision.outcome is AdmissionOutcome.SHED_LANE_FULL
        # The shed request did not consume the single token.
        assert ctrl.admit(policy, ("noop",), lane_depth=0).admitted

    def test_admission_holds_no_count_of_what_is_open(self):
        """Only the bucket and the lane depth the caller passes bound a
        tenant: a thousand admissions with nothing settled leave the
        next one admitted."""
        ctrl = controller()
        policy = TenantPolicy(name="t", max_queued=4)
        for _ in range(1000):
            assert ctrl.admit(policy, ("noop",) * 4, lane_depth=0).admitted
        assert ctrl.admit(policy, ("noop",), lane_depth=3).admitted
        assert ctrl.metrics.counters("t").admitted == 4001

    def test_release_is_a_no_op(self):
        """``release`` moves no token, meter or decision, however often
        and for whomever it is called."""
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=1.0, burst=2)
        bucket = ctrl.bucket(policy)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        ctrl.release("t", "noop")
        ctrl.release("t", "noop", count=5)
        ctrl.release("never-admitted", "other")
        assert bucket.tokens == pytest.approx(1.0)
        assert ctrl.metrics.counters("t").admitted == 1
        assert ctrl.metrics.tenants() == ["t"]
        # One token is left, and a release did not add a second.
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert not ctrl.admit(policy, ("noop",), 0).admitted

    def test_a_bare_servable_name_is_a_type_error(self):
        """The second argument used to be one name; iterating a ``str``
        would admit one request per character."""
        ctrl = controller()
        with pytest.raises(TypeError):
            ctrl.admit(TenantPolicy(name="t"), "noop", 0)
        assert ctrl.metrics.tenants() == []
        with pytest.raises(ValueError):
            ctrl.admit(TenantPolicy(name="t"), (), 0)


ADMITTED = AdmissionOutcome.ADMITTED
#: One row per (group shape, binding check): the servables, whether the
#: group is a chain, the policy limits, the lane depth it meets and the
#: expected outcome. Written by hand from the contract — lane cost is 1
#: for an arrival, n for a batch, 1 for a chain; only a chain may
#: overdraw; an admission charges every request, a denial nothing.
GROUP_TABLE = [
    # -- lane cost: depth 2 of max_queued 4 leaves two slots.
    ("arrival fits lane", ("a",), False, {"max_queued": 4}, 2, ADMITTED),
    ("arrival lane full", ("a",), False, {"max_queued": 4}, 4,
     AdmissionOutcome.SHED_LANE_FULL),
    ("batch of 2 fits lane", ("a",) * 2, False, {"max_queued": 4}, 2, ADMITTED),
    ("batch of 3 overflows lane", ("a",) * 3, False, {"max_queued": 4}, 2,
     AdmissionOutcome.SHED_LANE_FULL),
    ("chain of 3 takes one slot", ("a", "b", "c"), True, {"max_queued": 4}, 3,
     ADMITTED),
    ("chain lane full", ("a", "b", "c"), True, {"max_queued": 4}, 4,
     AdmissionOutcome.SHED_LANE_FULL),
    # -- no cap on what is open: any shape and size is admitted, and
    #    each servable is metered by its multiplicity in the group.
    ("batch of 4 unlimited", ("a",) * 4, False, {}, 0, ADMITTED),
    ("chain of 4 unlimited", ("a", "b", "c", "d"), True, {}, 0, ADMITTED),
    ("chain a,b,a meters each servable", ("a", "b", "a"), True, {}, 0,
     ADMITTED),
    ("chain a,a,a meters multiplicity", ("a", "a", "a"), True, {}, 0,
     ADMITTED),
    ("batch of 64 unlimited", ("a",) * 64, False, {}, 0, ADMITTED),
    ("batch of 3 at depth 1000 without a lane cap", ("a",) * 3, False, {},
     1000, ADMITTED),
    # -- the bucket: one token per request; debt only for a chain.
    ("batch of 3 of burst 3", ("a",) * 3, False,
     {"rate_limit_rps": 1.0, "burst": 3}, 0, ADMITTED),
    ("batch of 4 of burst 3", ("a",) * 4, False,
     {"rate_limit_rps": 1.0, "burst": 3}, 0, AdmissionOutcome.REJECTED_RATE_LIMIT),
    ("chain of 4 overdraws full burst 3", ("a", "b", "c", "d"), True,
     {"rate_limit_rps": 1.0, "burst": 3}, 0, ADMITTED),
]


class TestGroupShapes:
    """An arrival, a pre-split batch and a chain are three shapes of one
    ``admit``; each charges and denies as the table says."""

    @pytest.mark.parametrize(
        "servables, sequential, limits, depth, expected",
        [row[1:] for row in GROUP_TABLE],
        ids=[row[0] for row in GROUP_TABLE],
    )
    def test_charges_and_denies_as_the_table_says(
        self, servables, sequential, limits, depth, expected
    ):
        ctrl = controller()
        policy = TenantPolicy(name="t", **limits)
        bucket = ctrl.bucket(policy)
        decision = ctrl.admit(policy, servables, depth, sequential=sequential)
        assert decision.outcome is expected
        charged = len(servables) if expected is ADMITTED else 0
        for name in set(servables):
            assert ctrl.metrics.tenant_admissions(name).get("t", 0) == (
                servables.count(name) if charged else 0
            )
        assert ctrl.metrics.counters("t").admitted == charged
        if bucket is not None:
            assert bucket.tokens == pytest.approx(policy.effective_burst - charged)

    def test_a_chain_overdraws_only_a_full_bucket(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=1.0, burst=3)
        assert ctrl.admit(policy, ("a",), 0).admitted  # bucket no longer full
        chain = ctrl.admit(policy, ("a", "b", "c", "d"), 0, sequential=True)
        assert chain.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        assert ctrl.metrics.counters("t").admitted == 1


class TestAdmitMany:
    def test_all_or_nothing_against_every_cap(self):
        ctrl = controller()
        policy = TenantPolicy(
            name="t", rate_limit_rps=100.0, burst=10, max_queued=8
        )
        bucket = ctrl.bucket(policy)
        assert ctrl.admit(policy, ("noop",) * 5, lane_depth=0).admitted
        # Lane: 5 queued + 4 > 8.
        decision = ctrl.admit(policy, ("noop",) * 4, lane_depth=5)
        assert decision.outcome is AdmissionOutcome.SHED_LANE_FULL
        # Bucket: 5 tokens left < 6.
        decision = ctrl.admit(policy, ("noop",) * 6, lane_depth=0)
        assert decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        # Nothing was charged by either denial.
        assert ctrl.metrics.counters("t").admitted == 5
        assert bucket.tokens == pytest.approx(5.0)

    def test_batch_larger_than_bucket_rejected_atomically(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=1.0, burst=3)
        decision = ctrl.admit(policy, ("noop",) * 4, 0)
        assert decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        # All three tokens are still there for a fitting batch.
        assert ctrl.admit(policy, ("noop",) * 3, 0).admitted

    def test_lane_headroom_counts_the_whole_batch(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", max_queued=4)
        decision = ctrl.admit(policy, ("noop",) * 3, lane_depth=2)
        assert decision.outcome is AdmissionOutcome.SHED_LANE_FULL
        assert ctrl.admit(policy, ("noop",) * 2, lane_depth=2).admitted


class TestRateOverrides:
    """Temporary admission caps imposed by the reactive SLO policy."""

    def test_override_rate_limits_an_unlimited_tenant(self):
        ctrl = controller()
        policy = TenantPolicy(name="t")  # no rate limit declared
        ctrl.set_rate_override("t", 4.0)
        admitted = sum(
            ctrl.admit(policy, ("noop",), 0).admitted for _ in range(10)
        )
        # Quarter-second burst (at least one token): 4 rps -> 1 token.
        assert admitted == 1
        decision = ctrl.admit(policy, ("noop",), 0)
        assert decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        assert "4" in decision.detail  # denial names the override rate

    def test_override_replaces_the_policy_bucket(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=100.0, burst=50)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        ctrl.set_rate_override("t", 8.0)
        # The generous policy burst is out of the picture immediately:
        # only the quarter-second of banked override tokens (2) remain.
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert not ctrl.admit(policy, ("noop",), 0).admitted
        # Refill runs at the override rate, on virtual time.
        ctrl.clock.advance(1.0 / 8.0)
        assert ctrl.admit(policy, ("noop",), 0).admitted

    def test_burst_defaults_to_a_quarter_second_of_the_cap(self):
        ctrl = controller()
        policy = TenantPolicy(name="t")
        ctrl.set_rate_override("t", 40.0)  # quarter second -> 10 tokens
        admitted = sum(
            ctrl.admit(policy, ("noop",), 0).admitted for _ in range(20)
        )
        assert admitted == 10
        explicit = controller()
        explicit.set_rate_override("t", 40.0, burst=2.0)
        admitted = sum(
            explicit.admit(policy, ("noop",), 0).admitted for _ in range(20)
        )
        assert admitted == 2

    def test_clear_reverts_to_the_declared_policy(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=10.0, burst=2)
        ctrl.set_rate_override("t", 1.0)
        assert ctrl.rate_override("t") == 1.0
        assert ctrl.clear_rate_override("t") is True
        assert ctrl.clear_rate_override("t") is False
        assert ctrl.rate_override("t") is None
        # The policy bucket kept refilling untouched while overridden.
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert not ctrl.admit(policy, ("noop",), 0).admitted

    def test_validation(self):
        with pytest.raises(ValueError):
            controller().set_rate_override("t", 0.0)
