"""Kubernetes-like cluster substrate (the PetrelKube stand-in).

The paper's experiments run servables on PetrelKube, a 14-node Kubernetes
cluster (SS V-A). This package reproduces the cluster mechanics that the
evaluation depends on:

* :mod:`repro.cluster.node` — nodes with CPU/memory capacity,
* :mod:`repro.cluster.pod` — pods running one container each,
* :mod:`repro.cluster.scheduler` — a least-loaded bin-packing scheduler
  that respects resource requests,
* :mod:`repro.cluster.deployment` — replicated deployments with scale
  up/down,
* :mod:`repro.cluster.service` — stable virtual endpoints that
  load-balance across a deployment's ready pods,
* :mod:`repro.cluster.cluster` — the ``KubernetesCluster`` facade plus a
  ``petrelkube()`` factory matching the paper's testbed, and
* :mod:`repro.cluster.hpc` — a batch-scheduler (Cobalt/Slurm-like) HPC
  resource that runs servables via Singularity, for the Parsl executor's
  non-Kubernetes path.
"""

from repro.cluster.node import Node, ResourceSpec, InsufficientResources
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.scheduler import Scheduler, SchedulingError
from repro.cluster.deployment import Deployment
from repro.cluster.service import Service
from repro.cluster.cluster import KubernetesCluster, petrelkube
from repro.cluster.hpc import HPCResource, BatchJob, JobState

__all__ = [
    "Node",
    "ResourceSpec",
    "InsufficientResources",
    "Pod",
    "PodPhase",
    "Scheduler",
    "SchedulingError",
    "Deployment",
    "Service",
    "KubernetesCluster",
    "petrelkube",
    "HPCResource",
    "BatchJob",
    "JobState",
]
