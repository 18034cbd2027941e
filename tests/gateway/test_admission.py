"""Unit tests: admission control decisions and the in-flight ledger."""

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
        assert ctrl.in_flight("t") == 100
        assert ctrl.metrics.counters("t").admitted == 100

    def test_rate_limit_denial_is_typed_and_metered(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=10.0, burst=2)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert ctrl.admit(policy, ("noop",), 0).admitted
        decision = ctrl.admit(policy, ("noop",), 0)
        assert decision.outcome is AdmissionOutcome.REJECTED_RATE_LIMIT
        assert not decision.admitted
        # Denials charge nothing: the ledger holds only the two admits.
        assert ctrl.in_flight("t") == 2
        assert ctrl.metrics.counters("t").denied == {"rejected_rate_limit": 1}

    def test_rate_limit_refills_on_virtual_time(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=10.0, burst=1)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert not ctrl.admit(policy, ("noop",), 0).admitted
        ctrl.clock.advance(0.1)
        assert ctrl.admit(policy, ("noop",), 0).admitted

    def test_max_in_flight_binds_until_release(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", max_in_flight=2)
        assert ctrl.admit(policy, ("noop",), 0).admitted
        assert ctrl.admit(policy, ("noop",), 0).admitted
        decision = ctrl.admit(policy, ("noop",), 0)
        assert decision.outcome is AdmissionOutcome.REJECTED_MAX_IN_FLIGHT
        ctrl.release("t", "noop")
        assert ctrl.admit(policy, ("noop",), 0).admitted

    def test_per_servable_quota_is_independent_of_global_cap(self):
        ctrl = controller()
        policy = TenantPolicy(
            name="t", max_in_flight=10, servable_quotas={"cifar10": 1}
        )
        assert ctrl.admit(policy, ("cifar10",), 0).admitted
        quota_denial = ctrl.admit(policy, ("cifar10",), 0)
        assert quota_denial.outcome is AdmissionOutcome.REJECTED_SERVABLE_QUOTA
        # Other servables are unaffected by the cifar10 quota.
        assert ctrl.admit(policy, ("noop",), 0).admitted
        ctrl.release("t", "cifar10")
        assert ctrl.admit(policy, ("cifar10",), 0).admitted

    def test_lane_full_sheds_before_spending_tokens(self):
        ctrl = controller()
        policy = TenantPolicy(name="t", rate_limit_rps=1.0, burst=1, max_queued=3)
        decision = ctrl.admit(policy, ("noop",), lane_depth=3)
        assert decision.outcome is AdmissionOutcome.SHED_LANE_FULL
        # The shed request did not consume the single token.
        assert ctrl.admit(policy, ("noop",), lane_depth=0).admitted

    def test_a_cap_denial_burns_no_rate_limit_token(self):
        """The bucket is charged last: a request turned away by
        ``max_in_flight`` leaves the second burst token for the next
        admissible one."""
        ctrl = controller()
        policy = TenantPolicy(
            name="t", rate_limit_rps=1.0, burst=2, max_in_flight=1
        )
        assert ctrl.admit(policy, ("noop",), 0).admitted
        denied = ctrl.admit(policy, ("noop",), 0)
        assert denied.outcome is AdmissionOutcome.REJECTED_MAX_IN_FLIGHT
        ctrl.release("t", "noop")
        # Same instant, no refill: only an unspent token can admit this.
        assert ctrl.admit(policy, ("noop",), 0).outcome is AdmissionOutcome.ADMITTED

    def test_release_underflow_is_an_error(self):
        ctrl = controller()
        with pytest.raises(ValueError):
            ctrl.release("t", "noop")

    def test_a_refused_release_leaves_the_ledger_balanced(self):
        ctrl = controller()
        assert ctrl.admit(TenantPolicy(name="t"), ("a",), 0).admitted
        with pytest.raises(ValueError):
            ctrl.release("t", "b")
        assert ctrl.in_flight("t") == 1
        assert ctrl.in_flight("t", "a") == 1
        ctrl.release("t", "a")
        assert ctrl.in_flight("t") == ctrl.in_flight("t", "a") == 0

    def test_a_bare_servable_name_is_a_type_error(self):
        """The second argument used to be one name; iterating a ``str``
        would admit one request per character."""
        ctrl = controller()
        with pytest.raises(TypeError):
            ctrl.admit(TenantPolicy(name="t"), "noop", 0)
        assert ctrl.in_flight("t") == 0
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
    # -- max_in_flight absorbs every request of any shape.
    ("batch of 3 within cap", ("a",) * 3, False, {"max_in_flight": 3}, 0, ADMITTED),
    ("batch of 4 over cap", ("a",) * 4, False, {"max_in_flight": 3}, 0,
     AdmissionOutcome.REJECTED_MAX_IN_FLIGHT),
    ("chain of 4 over cap", ("a", "b", "c", "d"), True, {"max_in_flight": 3}, 0,
     AdmissionOutcome.REJECTED_MAX_IN_FLIGHT),
    # -- quotas count each servable's multiplicity in the group.
    ("chain a,b,a within quota 2", ("a", "b", "a"), True,
     {"servable_quotas": {"a": 2}}, 0, ADMITTED),
    ("chain a,a,a over quota 2", ("a", "a", "a"), True,
     {"servable_quotas": {"a": 2}}, 0, AdmissionOutcome.REJECTED_SERVABLE_QUOTA),
    ("batch of 3 over quota 2", ("a",) * 3, False,
     {"servable_quotas": {"a": 2}}, 0, AdmissionOutcome.REJECTED_SERVABLE_QUOTA),
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
        assert ctrl.in_flight("t") == charged
        for name in set(servables):
            assert ctrl.in_flight("t", name) == (
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
        assert ctrl.in_flight("t") == 1


class TestAdmitMany:
    def test_all_or_nothing_against_every_cap(self):
        ctrl = controller()
        policy = TenantPolicy(
            name="t",
            rate_limit_rps=100.0,
            burst=10,
            max_in_flight=8,
            max_queued=8,
            servable_quotas={"noop": 5},
        )
        assert ctrl.admit(policy, ("noop",) * 5, lane_depth=0).admitted
        assert ctrl.in_flight("t", "noop") == 5
        # Quota: 5 in flight + 1 > 5.
        decision = ctrl.admit(policy, ("noop",) * 1, 0)
        assert decision.outcome is AdmissionOutcome.REJECTED_SERVABLE_QUOTA
        # Nothing was charged by the denial.
        assert ctrl.in_flight("t") == 5

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
