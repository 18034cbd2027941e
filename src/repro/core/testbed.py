"""Testbed factory: wires the full DLHub deployment of SS V-A.

One call builds the whole system — virtual clock, Globus-Auth-like auth,
search index, object store + endpoints, container registry, the
PetrelKube cluster, a Task Manager on "Cooley" with Parsl / TF Serving /
SageMaker executors, and the Management Service "on EC2" — with the
paper's measured RTTs between tiers. Tests, examples, and every benchmark
build on this factory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.auth.identity import Identity
from repro.auth.service import AuthService
from repro.cluster.cluster import KubernetesCluster, petrelkube
from repro.containers.registry import ContainerRegistry
from repro.core.builder import ServableBuilder
from repro.core.executors import (
    ParslServableExecutor,
    SageMakerExecutor,
    TFServingExecutor,
)
from repro.core.management import ManagementService
from repro.core.repository import ModelRepository
from repro.core.runtime import ServingRuntime
from repro.core.servable import Servable
from repro.core.task_manager import TaskManager
from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable
from repro.data.endpoint import Endpoint, EndpointACL
from repro.data.store import ObjectStore
from repro.search.index import SearchIndex, Visibility
from repro.serving.clipper import ClipperBackend
from repro.serving.sagemaker import SageMakerBackend
from repro.serving.tfserving import TFServingBackend
from repro.sim.clock import VirtualClock
from repro.sim.latency import LatencyModel
from repro.sim.rng import SeededRNG


@dataclass
class DLHubTestbed:
    """The assembled deployment plus convenience handles."""

    clock: VirtualClock
    rng: SeededRNG
    latency: LatencyModel
    auth: AuthService
    store: ObjectStore
    registry: ContainerRegistry
    cluster: KubernetesCluster
    repository: ModelRepository
    management: ManagementService
    task_manager: TaskManager
    parsl_executor: ParslServableExecutor
    #: Identity/token of the default test user.
    user: Identity = None  # type: ignore[assignment]
    token: str = ""
    _extra_backends: dict[str, object] = field(default_factory=dict)

    # -- convenience -----------------------------------------------------------------
    def add_task_manager(self, name: str, memoize: bool | None = None) -> TaskManager:
        """Add a fleet worker: a Task Manager with its own Parsl executor.

        The worker consumes the shared task queue but fronts its own
        cluster (Task Managers are deployed near distinct compute,
        SS IV-B), so servables it registers deploy independently. It is
        *not* registered with the Management Service's round-robin — a
        :class:`~repro.core.runtime.ServingRuntime` routes to it instead.
        """
        cluster = petrelkube(self.clock, self.registry)
        task_manager = TaskManager(
            self.clock,
            self.management.queue,
            name=name,
            memoize=self.task_manager.memoize if memoize is None else memoize,
        )
        executor = ParslServableExecutor(
            self.clock, cluster, self.latency.task_manager_to_cluster
        )
        task_manager.add_executor("parsl", executor)
        return task_manager

    def add_fleet_worker(self, name: str, memoize: bool | None = None) -> TaskManager:
        """Add a *concurrent* fleet worker: a Task Manager on its own clock.

        Shared-clock workers (``add_task_manager``) serialize: any
        processing advances the one global timeline. A fleet worker
        carries a private :class:`VirtualClock` (synced forward to global
        time when the :class:`~repro.core.runtime.ServingRuntime`
        dispatches to it), so independent workers genuinely overlap and
        deployment cold starts occupy only the worker being provisioned.
        This is the worker shape the fleet control plane
        (:class:`~repro.core.fleet.FleetController`) provisions and
        retires.
        """
        worker_clock = VirtualClock(start=self.clock.now())
        cluster = petrelkube(worker_clock, self.registry)
        task_manager = TaskManager(
            worker_clock,
            self.management.queue,
            name=name,
            memoize=self.task_manager.memoize if memoize is None else memoize,
        )
        executor = ParslServableExecutor(
            worker_clock, cluster, self.latency.task_manager_to_cluster
        )
        task_manager.add_executor("parsl", executor)
        return task_manager

    def enable_gateway(
        self,
        policies: TenantPolicyTable | None = None,
        workers: list[TaskManager] | None = None,
        n_workers: int = 2,
        max_batch_size: int = 16,
        max_coalesce_delay_s: float = 0.005,
        durable_store=None,
        snapshot_every_records: int = 256,
    ) -> ServingGateway:
        """Stand up the gateway-fronted serving path and attach it.

        Builds a :class:`ServingRuntime` over ``workers`` (concurrent
        fleet workers ``gw-w0..`` are provisioned when omitted), wraps
        it in a :class:`~repro.gateway.gateway.ServingGateway`, and
        attaches the gateway to the Management Service — after which
        every ``run``/``run_async``/``run_batch``/pipeline invocation
        passes tenant admission and weighted fair queuing, and nothing
        reaches a Task Manager except through the runtime.

        The gateway's dispatch-slot budget is *live*: sized to the
        fleet's current in-flight capacity and re-derived whenever
        workers join, leave, or flip liveness — so pairing the gateway
        with a :class:`~repro.core.fleet.FleetController` needs no slot
        tuning.

        With ``policies=None``, a permissive default tenant
        (``"public"``, weight 1, no limits) is registered so single-user
        flows keep working unmetered. Callers still must ``place``
        servables on ``gateway.runtime``.

        Passing a ``durable_store`` (see
        :mod:`repro.durability.store`) attaches a write-ahead
        :class:`~repro.durability.journal.Journal` (snapshotting at the
        first gateway tick after ``snapshot_every_records`` appends) to
        the shared queue and the gateway, so admissions, queue traffic
        and settlements are durably recorded for crash recovery. The
        default ``None`` keeps the non-durable legacy path bit-for-bit.
        """
        if policies is None:
            policies = TenantPolicyTable()
            policies.register(TenantPolicy(name="public"))
            policies.set_default("public")
        if workers is None:
            workers = [self.add_fleet_worker(f"gw-w{i}") for i in range(n_workers)]
        journal = None
        if durable_store is not None:
            from repro.durability.journal import Journal

            journal = Journal(
                durable_store, snapshot_every_records=snapshot_every_records
            )
            self.management.queue.attach_journal(journal)
        runtime = ServingRuntime(
            self.clock,
            self.management.queue,
            workers,
            max_batch_size=max_batch_size,
            max_coalesce_delay_s=max_coalesce_delay_s,
        )
        gateway = ServingGateway(self.auth, runtime, policies, journal=journal)
        self.management.attach_gateway(gateway)
        return gateway

    def login(self, provider: str, username: str) -> str:
        """Authenticate an existing identity; returns a bearer token."""
        return self.auth.login(provider, username).token

    def new_user(self, username: str, provider: str = "globus") -> tuple[Identity, str]:
        """Register + login a new user; returns (identity, token)."""
        identity = self.auth.identities.register_identity(provider, username)
        token = self.auth.login(provider, username).token
        return identity, token

    def publish_and_deploy(
        self,
        servable: Servable,
        replicas: int = 1,
        executor: str = "parsl",
        visibility: Visibility | None = None,
        token: str | None = None,
    ):
        """The common publish -> build -> register -> deploy flow."""
        published = self.management.publish(
            token or self.token, servable, visibility=visibility
        )
        self.task_manager.register_servable(
            servable, published.build.image, executor_name=executor, replicas=replicas
        )
        return published

    def tfserving_executor(self, protocol: str = "grpc") -> TFServingExecutor:
        """Create (and register) a TF Serving executor on the Task Manager."""
        name = f"tfserving-{protocol}"
        if name not in self._extra_backends:
            backend = TFServingBackend(
                self.clock, self.cluster, self.latency.task_manager_to_cluster, protocol
            )
            executor = TFServingExecutor(backend)
            self.task_manager.add_executor(name, executor)
            self._extra_backends[name] = executor
        return self._extra_backends[name]  # type: ignore[return-value]

    def sagemaker_executor(self, mode: str = "flask") -> SageMakerExecutor:
        name = f"sagemaker-{mode}"
        if name not in self._extra_backends:
            backend = SageMakerBackend(
                self.clock, self.cluster, self.latency.task_manager_to_cluster, mode
            )
            executor = SageMakerExecutor(backend)
            self.task_manager.add_executor(name, executor)
            self._extra_backends[name] = executor
        return self._extra_backends[name]  # type: ignore[return-value]

    def clipper_backend(self, memoization: bool = True) -> ClipperBackend:
        name = f"clipper-memo-{memoization}"
        if name not in self._extra_backends:
            self._extra_backends[name] = ClipperBackend(
                self.clock,
                self.cluster,
                self.latency.task_manager_to_cluster,
                memoization=memoization,
            )
        return self._extra_backends[name]  # type: ignore[return-value]


def build_testbed(
    seed: int = 0,
    jitter: bool = False,
    memoize_tm: bool = True,
    username: str = "scientist",
) -> DLHubTestbed:
    """Assemble the full SS V-A deployment.

    Parameters
    ----------
    seed:
        Root seed for all stochastic behaviour (latency jitter, datasets).
    jitter:
        Enable Gaussian latency jitter (on for figure benches — it drives
        the 5th/95th error bars — off for exact-value unit tests).
    memoize_tm:
        Whether the Task Manager's Parsl cache is enabled.
    username:
        A default user registered with the ``globus`` identity provider.
    """
    clock = VirtualClock()
    rng = SeededRNG(seed)
    latency = LatencyModel.paper_testbed(rng, jitter=jitter)

    auth = AuthService(clock)
    for provider, domain in (
        ("globus", "globusid.org"),
        ("orcid", "orcid.org"),
        ("google", "gmail.com"),
        ("anl", "anl.gov"),
        ("uchicago", "uchicago.edu"),
    ):
        auth.identities.add_provider(provider, domain)

    store = ObjectStore("dlhub-store")
    registry = ContainerRegistry("dlhub-registry")
    cluster = petrelkube(clock, registry)

    index = SearchIndex("dlhub-models")
    builder = ServableBuilder(clock, registry)
    repository = ModelRepository(clock, builder, index)

    user = auth.identities.register_identity("globus", username)
    staging = Endpoint(
        "dlhub-staging",
        store,
        EndpointACL(owner_id=user.identity_id, public_read=True),
        latency_class="wan",
    )
    # Anyone authenticated may stage components into DLHub's bucket.
    staging.acl.writers.update({user.identity_id})

    management = ManagementService(
        clock, repository, auth, latency, staging_endpoint=staging
    )
    task_manager = TaskManager(clock, management.queue, name="cooley-tm", memoize=memoize_tm)
    parsl_executor = ParslServableExecutor(
        clock, cluster, latency.task_manager_to_cluster
    )
    task_manager.add_executor("parsl", parsl_executor)
    management.register_task_manager(task_manager)

    token = auth.login("globus", username).token

    return DLHubTestbed(
        clock=clock,
        rng=rng,
        latency=latency,
        auth=auth,
        store=store,
        registry=registry,
        cluster=cluster,
        repository=repository,
        management=management,
        task_manager=task_manager,
        parsl_executor=parsl_executor,
        user=user,
        token=token,
    )
