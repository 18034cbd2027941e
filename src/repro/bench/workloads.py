"""Shared experiment setup: testbed + zoo + deployed servables.

Experiments in SS V share one environment: the six servables published
and deployed on PetrelKube, driven through the Management Service with
requests submitted sequentially (waiting for each response). The
:class:`ExperimentContext` reproduces that protocol, including the
fixed-input convention ("submitting 100 requests with fixed input data").

The serving benches run the same environment behind the serving
runtime instead: :func:`build_fleet` publishes one servable and places
it on a worker fleet, with tenants bound to policies, and
:func:`phased_offsets` spaces their open-loop arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.containers.image import Image
from repro.core.client import DLHubClient
from repro.core.runtime import ServingRuntime
from repro.core.servable import Servable
from repro.core.task_manager import TaskManager
from repro.core.tasks import TaskResult
from repro.core.testbed import DLHubTestbed, build_testbed
from repro.core.zoo import ModelZoo, ZOO_NAMES, build_zoo, sample_input
from repro.gateway import TenantPolicy, TenantPolicyTable


@dataclass
class ExperimentContext:
    """A fully-deployed testbed ready to serve experiment traffic."""

    testbed: DLHubTestbed
    zoo: ModelZoo
    client: DLHubClient
    deployed: list[str] = field(default_factory=list)

    @property
    def clock(self):
        """The testbed's virtual clock."""
        return self.testbed.clock

    def fixed_input(self, servable: str) -> tuple:
        """The fixed arguments every request to ``servable`` carries."""
        return sample_input(servable)

    def run_fixed(self, servable: str) -> TaskResult:
        """One request with the experiment's fixed input."""
        return self.client.run_detailed(servable, *self.fixed_input(servable))

    def run_sequential(self, servable: str, n_requests: int) -> list[TaskResult]:
        """Submit ``n_requests`` sequentially, waiting for each response."""
        return [self.run_fixed(servable) for _ in range(n_requests)]

    def clear_caches(self) -> None:
        """Empty the Task Manager's memoization cache."""
        self.testbed.task_manager.cache.clear()


def build_context(
    servables: tuple[str, ...] = ZOO_NAMES,
    seed: int = 0,
    jitter: bool = True,
    memoize: bool = False,
    replicas: int = 1,
    zoo_kwargs: dict[str, Any] | None = None,
) -> ExperimentContext:
    """Build a testbed, publish + deploy the requested servables.

    ``memoize`` controls the TM cache ("To remove bias we disable DLHub
    memoization mechanisms ... except where otherwise noted", SS V-B).
    The zoo uses a reduced synthetic-OQMD size by default so experiment
    setup stays fast; pass ``zoo_kwargs`` to override.
    """
    testbed = build_testbed(seed=seed, jitter=jitter, memoize_tm=memoize)
    kwargs = {"oqmd_entries": 80, "n_estimators": 6}
    kwargs.update(zoo_kwargs or {})
    zoo = build_zoo(seed=seed, **kwargs)
    for name in servables:
        testbed.publish_and_deploy(zoo[name], replicas=replicas)
    client = DLHubClient(testbed.management, testbed.token)
    return ExperimentContext(
        testbed=testbed, zoo=zoo, client=client, deployed=list(servables)
    )


@dataclass
class Fleet:
    """One servable published on a testbed, its workers and tenants.

    ``tokens`` maps each tenant to its user's bearer token.
    """

    testbed: DLHubTestbed
    servable: Servable
    image: Image
    workers: list[TaskManager]
    policies: TenantPolicyTable
    tokens: dict[str, str]


def provision_fleet(
    servable: str,
    n_workers: int,
    tenants: tuple[str, ...] = (),
    shared_clock: bool = False,
    seed: int = 0,
) -> Fleet:
    """Testbed -> zoo -> users bound to tenant policies -> workers -> publish.

    Jitter is off (runs replay bit for bit) and so is memoization
    (repeated fixed inputs measure dispatch, not the cache, SS V-B).
    Each tenant gets a same-named user under a default policy. Workers
    overlap on their own clocks unless ``shared_clock``.
    """
    testbed = build_testbed(seed=seed, jitter=False, memoize_tm=False)
    zoo = build_zoo(seed=seed, oqmd_entries=50, n_estimators=4)
    policies = TenantPolicyTable()
    tokens: dict[str, str] = {}
    for tenant in tenants:
        policies.register(TenantPolicy(name=tenant))
        identity, tokens[tenant] = testbed.new_user(tenant)
        policies.bind_identity(identity, tenant)
    add_worker = testbed.add_task_manager if shared_clock else testbed.add_fleet_worker
    workers = [add_worker(f"w{i}") for i in range(n_workers)]
    published = testbed.management.publish(testbed.token, zoo[servable])
    return Fleet(testbed, zoo[servable], published.build.image, workers, policies, tokens)


def build_fleet(
    servable: str,
    n_workers: int,
    max_batch_size: int,
    max_coalesce_delay_s: float,
    copies: int = 1,
    replicas: int = 1,
    tracer=None,
    tenants: tuple[str, ...] = (),
    shared_clock: bool = False,
    seed: int = 0,
) -> tuple[Fleet, ServingRuntime]:
    """:func:`provision_fleet`, then a runtime with the servable placed.

    The servable gets ``copies`` copies of ``replicas`` pods each.
    """
    fleet = provision_fleet(servable, n_workers, tenants, shared_clock, seed)
    runtime = ServingRuntime(
        fleet.testbed.clock,
        fleet.testbed.management.queue,
        fleet.workers,
        max_batch_size=max_batch_size,
        max_coalesce_delay_s=max_coalesce_delay_s,
        tracer=tracer,
    )
    runtime.place(fleet.servable, fleet.image, copies=copies, replicas=replicas)
    return fleet, runtime


def phased_offsets(phases: Iterable[tuple[float, float]]) -> list[float]:
    """Arrival offsets for ``(duration_s, rate_rps)`` phases.

    Arrivals are uniform within a phase: its ``k``-th lands at the
    phase start plus ``k / rate``, ``int(duration * rate)`` of them.
    """
    offsets: list[float] = []
    start = 0.0
    for duration_s, rate_rps in phases:
        offsets.extend(
            start + k / rate_rps for k in range(int(duration_s * rate_rps))
        )
        start += duration_s
    return offsets


def percentile_row(values_ms: list[float]) -> dict:
    """Median / p5 / p95 of a list of millisecond samples."""
    import numpy as np

    arr = np.asarray(values_ms)
    return {
        "median_ms": float(np.median(arr)),
        "p5_ms": float(np.percentile(arr, 5)),
        "p95_ms": float(np.percentile(arr, 95)),
        "mean_ms": float(arr.mean()),
        "n": len(arr),
    }
