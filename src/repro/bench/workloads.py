"""Shared experiment setup: testbed + zoo + deployed servables.

Experiments in SS V share one environment: the six servables published
and deployed on PetrelKube, driven through the Management Service with
requests submitted sequentially (waiting for each response). The
:class:`ExperimentContext` reproduces that protocol, including the
fixed-input convention ("submitting 100 requests with fixed input data").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.client import DLHubClient
from repro.core.tasks import TaskResult
from repro.core.testbed import DLHubTestbed, build_testbed
from repro.core.zoo import ModelZoo, ZOO_NAMES, build_zoo, sample_input


@dataclass
class ExperimentContext:
    """A fully-deployed testbed ready to serve experiment traffic."""

    testbed: DLHubTestbed
    zoo: ModelZoo
    client: DLHubClient
    deployed: list[str] = field(default_factory=list)

    @property
    def clock(self):
        return self.testbed.clock

    def fixed_input(self, servable: str) -> tuple:
        return sample_input(servable)

    def run_fixed(self, servable: str) -> TaskResult:
        """One request with the experiment's fixed input."""
        return self.client.run_detailed(servable, *self.fixed_input(servable))

    def run_sequential(self, servable: str, n_requests: int) -> list[TaskResult]:
        """Submit ``n_requests`` sequentially, waiting for each response."""
        return [self.run_fixed(servable) for _ in range(n_requests)]

    def clear_caches(self) -> None:
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
