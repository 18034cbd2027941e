"""Unit tests: tenant policies, token buckets, and tenant resolution."""

from dataclasses import FrozenInstanceError

import pytest

from repro.auth.identity import Identity
from repro.gateway.policy import (
    PolicyError,
    TenantPolicy,
    TenantPolicyTable,
    TokenBucket,
)
from repro.sim.clock import VirtualClock


def ident(n: str) -> Identity:
    return Identity(identity_id=f"id-{n}", username=n, provider="globusid.org")


class TestTenantPolicy:
    def test_defaults_are_unlimited(self):
        policy = TenantPolicy(name="t")
        assert policy.weight == 1.0
        assert policy.rate_limit_rps is None
        assert policy.max_queued is None

    def test_effective_burst_defaults_to_rate(self):
        assert TenantPolicy(name="t", rate_limit_rps=7.0).effective_burst == 7.0
        assert TenantPolicy(name="t", rate_limit_rps=0.2).effective_burst == 1.0
        assert (
            TenantPolicy(name="t", rate_limit_rps=7.0, burst=3).effective_burst == 3
        )

    def test_policy_is_frozen_after_registration(self):
        policy = TenantPolicy(name="t", max_queued=4)
        table = TenantPolicyTable()
        table.register(policy)
        with pytest.raises(FrozenInstanceError):
            policy.max_queued = 99
        assert table.policy("t").max_queued == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(name=""),
            dict(name="t", weight=0),
            dict(name="t", rate_limit_rps=0),
            dict(name="t", burst=0),
            dict(name="t", max_queued=0),
            dict(name="t", weight=-1.0),
            dict(name="t", rate_limit_rps=5.0, burst=0.5),
        ],
    )
    def test_invalid_declarations(self, kwargs):
        with pytest.raises(PolicyError):
            TenantPolicy(**kwargs)


class TestTokenBucket:
    def test_burst_then_refill_on_virtual_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_rps=10.0, burst=3)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]
        clock.advance(0.1)  # one token refills
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_bucket_caps_at_burst(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_rps=100.0, burst=2)
        clock.advance(10.0)
        assert bucket.tokens == 2.0

    def test_multi_token_take(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_rps=1.0, burst=5)
        assert bucket.try_take(5)
        assert not bucket.try_take(1)
        clock.advance(2.0)
        assert bucket.try_take(2)


class TestTenantPolicyTable:
    def build(self):
        table = TenantPolicyTable()
        table.register(TenantPolicy(name="alpha"))
        table.register(TenantPolicy(name="beta", weight=2.0))
        return table

    def test_identity_binding_wins_over_group_and_default(self):
        table = self.build()
        table.register(TenantPolicy(name="fallback"))
        table.set_default("fallback")
        table.bind_group("astro", "beta")
        user = ident("u")
        table.bind_identity(user, "alpha")
        assert table.resolve(user, frozenset({"astro"})).name == "alpha"

    def test_group_binding_with_deterministic_tie_break(self):
        table = self.build()
        table.bind_group("zeta-group", "alpha")
        table.bind_group("astro", "beta")
        resolved = table.resolve(ident("u"), frozenset({"zeta-group", "astro"}))
        assert resolved.name == "beta"  # 'astro' < 'zeta-group'

    def test_default_and_unresolvable(self):
        table = self.build()
        assert table.resolve(ident("u")) is None
        table.set_default("alpha")
        assert table.resolve(ident("u")).name == "alpha"

    def test_bindings_require_registered_tenants(self):
        table = self.build()
        with pytest.raises(PolicyError):
            table.bind_identity(ident("u"), "nope")
        with pytest.raises(PolicyError):
            table.bind_group("g", "nope")
        with pytest.raises(PolicyError):
            table.set_default("nope")
        with pytest.raises(PolicyError):
            table.register(TenantPolicy(name="alpha"))
