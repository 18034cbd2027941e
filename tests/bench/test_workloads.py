"""The serving benches' one fleet builder and one arrival generator."""

import ast
from pathlib import Path

import repro.bench
from repro.bench.workloads import build_fleet, phased_offsets, provision_fleet


class TestBuildFleet:
    def test_workers_and_copies_per_host(self):
        fleet, runtime = build_fleet("noop", 3, 8, 0.005, copies=2)
        assert runtime.workers == fleet.workers
        assert [w.name for w in runtime.workers] == ["w0", "w1", "w2"]
        hosting = [w.name for w in runtime.workers if "noop" in w.registered_servables()]
        assert hosting == ["w0", "w1"]
        assert (runtime.max_batch_size, runtime.max_coalesce_delay_s) == (8, 0.005)

    def test_tenants_resolve_to_their_policies(self):
        fleet = provision_fleet("noop", 1, tenants=("hot", "light"))
        assert list(fleet.tokens) == ["hot", "light"]
        assert fleet.policies.tenants() == ["hot", "light"]
        for tenant, token in fleet.tokens.items():
            identity = fleet.testbed.auth.tokens.introspect(token).identity
            assert fleet.policies.resolve(identity).name == tenant

    def test_no_tenants_no_users(self):
        fleet = provision_fleet("noop", 1)
        assert fleet.tokens == {} and fleet.policies.tenants() == []

    def test_own_clock_vs_shared_clock_workers(self):
        own = provision_fleet("noop", 2)
        shared = provision_fleet("noop", 2, shared_clock=True)
        assert all(w.clock is not own.testbed.clock for w in own.workers)
        assert all(w.clock is shared.testbed.clock for w in shared.workers)

    def test_servable_is_published_not_yet_deployed(self):
        fleet = provision_fleet("noop", 2)
        assert fleet.servable.name == "noop"
        assert fleet.testbed.registry.exists(fleet.image.reference)
        assert all(w.registered_servables() == [] for w in fleet.workers)


class TestPhasedOffsets:
    def test_uniform_within_a_phase_by_division(self):
        # k / rate and k * (1 / rate) differ in the last bit at k = 9
        # for 1000 rps: the generator divides.
        offsets = phased_offsets(((0.02, 1000.0),))
        assert len(offsets) == 20
        assert offsets == [k / 1000.0 for k in range(20)]
        assert offsets[9] != 9 * (1.0 / 1000.0)

    def test_phase_boundaries_are_exact(self):
        phases = ((0.1, 30.0), (0.2, 800.0), (0.5, 7.0))
        offsets = phased_offsets(phases)
        counts = [int(d * r) for d, r in phases]
        assert counts == [3, 160, 3]
        second = offsets[3 : 3 + 160]
        third = offsets[3 + 160 :]
        # Each phase starts at the running sum of the durations before
        # it, and its k-th arrival lands k / rate after that.
        assert offsets[:3] == [0.0, 1 / 30.0, 2 / 30.0]
        assert second == [0.1 + k / 800.0 for k in range(160)]
        assert third == [(0.1 + 0.2) + k / 7.0 for k in range(3)]
        assert third[0] == 0.1 + 0.2 != 0.3

    def test_rates_truncate_to_whole_arrivals(self):
        assert phased_offsets(((0.5, 5.0), (1.0, 0.5))) == [0.0, 0.2]


#: Names whose call builds a serving stack by hand.
STACK_BUILDERS = {"build_testbed", "build_zoo", "ServingRuntime", "TenantPolicyTable"}


def test_workloads_is_the_one_door_to_a_serving_stack():
    """No bench module but ``workloads.py`` builds a testbed, a zoo, a
    runtime or a tenant table itself: every serving bench goes through
    :func:`~repro.bench.workloads.build_fleet`."""
    offenders = []
    for path in sorted(Path(repro.bench.__file__).parent.glob("*.py")):
        if path.name == "workloads.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in STACK_BUILDERS:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
