"""HPC batch resource: Cobalt/Slurm-like scheduler + Singularity execution.

The Parsl executor "can support Kubernetes and many other common HPC
schedulers and clouds" (SS IV-C), and Task Managers deploy to "HPC
resources via Singularity" (SS IV-B). This module models a batch system:
jobs are submitted to a queue, wait for free nodes, run Singularity
instances of servable images, and release nodes on completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.containers.image import Image
from repro.containers.singularity import SingularityInstance, SingularityRuntime
from repro.sim.clock import VirtualClock


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"


class HPCError(RuntimeError):
    """Raised on invalid job operations."""


@dataclass
class BatchJob:
    """A batch job holding ``nodes_requested`` nodes for a servable image."""

    job_id: int
    image: Image
    nodes_requested: int
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    instances: list[SingularityInstance] = field(default_factory=list)

    @property
    def queue_wait(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


class HPCResource:
    """A batch-scheduled HPC machine (the Cooley-class resource).

    Parameters
    ----------
    clock:
        Shared virtual clock.
    total_nodes:
        Number of compute nodes.
    base_queue_wait_s:
        Queue wait charged when free nodes are available immediately
        (scheduler cycle time). When the machine is full, jobs wait until
        a running job is released.
    """

    def __init__(
        self,
        clock: VirtualClock,
        name: str = "cooley",
        total_nodes: int = 126,
        base_queue_wait_s: float = 30.0,
    ) -> None:
        self.clock = clock
        self.name = name
        self.total_nodes = total_nodes
        self.base_queue_wait_s = base_queue_wait_s
        self.free_nodes = total_nodes
        self._ids = itertools.count(1)
        self.jobs: dict[int, BatchJob] = {}
        self._pending: list[BatchJob] = []
        self._runtime = SingularityRuntime(clock, node_name=name)

    def submit(self, image: Image, nodes: int = 1) -> BatchJob:
        if nodes < 1 or nodes > self.total_nodes:
            raise HPCError(
                f"invalid node request {nodes} (machine has {self.total_nodes})"
            )
        job = BatchJob(
            job_id=next(self._ids),
            image=image,
            nodes_requested=nodes,
            submitted_at=self.clock.now(),
        )
        self.jobs[job.job_id] = job
        self._pending.append(job)
        self._try_start()
        return job

    def _try_start(self) -> None:
        """FIFO backfill: start pending jobs that fit in free nodes."""
        still_pending: list[BatchJob] = []
        for job in self._pending:
            if job.state is not JobState.QUEUED:
                continue
            if job.nodes_requested <= self.free_nodes:
                self.free_nodes -= job.nodes_requested
                self.clock.advance(self.base_queue_wait_s)
                job.started_at = self.clock.now()
                job.state = JobState.RUNNING
                sif = self._runtime.build(job.image)
                job.instances = [
                    self._runtime.start(sif) for _ in range(job.nodes_requested)
                ]
            else:
                still_pending.append(job)
        self._pending = still_pending

    def exec(self, job: BatchJob, instance_index: int, *args: Any, **kwargs: Any) -> Any:
        if job.state is not JobState.RUNNING:
            raise HPCError(f"job {job.job_id} is {job.state.value}")
        instance = job.instances[instance_index % len(job.instances)]
        return self._runtime.exec(instance, *args, **kwargs)

    def release(self, job: BatchJob) -> None:
        """Complete a job, free its nodes, start queued work."""
        if job.state is not JobState.RUNNING:
            raise HPCError(f"cannot release job in state {job.state.value}")
        for instance in job.instances:
            self._runtime.stop(instance)
        job.state = JobState.COMPLETED
        self.free_nodes += job.nodes_requested
        self._try_start()
