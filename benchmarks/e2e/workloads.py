"""Seeded inputs and serving stacks for the end-to-end benchmark workloads.

Two halves. The *generators* turn ``(seed, scale)`` into a schedule of
plain :class:`Offer` tuples — open-loop arrivals on the virtual clock,
the tenant each belongs to, and the servable input — and know nothing
about the serving stack. The *builders* assemble the stack each workload
needs through the package's public API only and pair it with the
schedule as a :class:`Stack` whose :meth:`Stack.serve` is the one timed
call.

Request counts are fixed by the workload and ``scale`` (never by how
fast the code under test runs). Arrivals are a Poisson process
conditioned on its count: each phase of ``duration x rate`` requests
places them uniformly at random inside the phase, so the same seed
reproduces the schedule exactly and every seed offers the same number
of requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.core.fleet import FleetController, TargetUtilizationPolicy
from repro.core.obsloop import (
    AdaptiveSampler,
    AlertEngine,
    BurnRateRule,
    ObservabilityLoop,
    ReactiveSLOPolicy,
    SeriesStore,
)
from repro.core.runtime import ServingRuntime
from repro.core.tasks import TaskRequest
from repro.core.telemetry import SLOBurnMonitor, Tracer, build_hub
from repro.core.testbed import build_testbed
from repro.durability import ChaosHarness, CrashPlan, InMemoryDurableStore
from repro.gateway import ServingGateway, TenantPolicy, TenantPolicyTable
from repro.matsci.elements import ELEMENTS

#: Latency limit (virtual seconds) behind ``v_slo_attainment`` and the
#: ``max_rate`` ladder.
SLO_LIMIT_S = 0.250
#: The common fleet: own-clock workers, so batches genuinely overlap.
N_WORKERS = 4
MAX_BATCH_SIZE = 16
COALESCE_DELAY_S = 0.005
SNAPSHOT_EVERY_RECORDS = 256
#: ``matminer_util`` costs microseconds of host time per call; the two
#: CNN servables cost 9-25 ms of NumPy, 50-100x the stack's own
#: per-request cost, and would hide every layer this benchmark watches.
SERVABLE = "matminer_util"
N_TENANTS = 16
POOL_SIZE = 64
POOL_SHARE = 0.25
STEADY_RATE_RPS = 500.0
#: ~80% of what four workers serve at batch size 1. At 220 rps and below
#: more than half the requests meet an idle worker and the median
#: latency is the same constant for every seed, which says nothing.
LANE_CHURN_RPS = 230.0
#: ``max_rate`` offers the steady population at each of these rates in
#: turn, :data:`LADDER_RUNG_S` virtual seconds per rung (x scale).
LADDER_RPS = tuple(float(rate) for rate in range(500, 1001, 50))
LADDER_RUNG_S = 1.5

_SYMBOLS = tuple(sorted(ELEMENTS))


class Offer(NamedTuple):
    """One generated request: when it is due, whose it is, what it asks."""

    offset_s: float
    tenant: int
    servable: str
    args: tuple


# -- generators ---------------------------------------------------------------------
def phased_offsets(
    rng: np.random.Generator, phases: list[tuple[float, float]]
) -> list[float]:
    """Arrival offsets for ``(duration_s, rate_rps)`` phases, in order.

    Each phase holds exactly ``round(duration * rate)`` arrivals placed
    uniformly inside it (a Poisson process given its count).
    """
    offsets: list[float] = []
    start = 0.0
    for duration_s, rate_rps in phases:
        count = int(round(duration_s * rate_rps))
        offsets.extend(sorted((start + rng.random(count) * duration_s).tolist()))
        start += duration_s
    return offsets


def zipf_shares(n: int) -> np.ndarray:
    """Zipf(1) traffic shares over ``n`` tenants (tenant 0 the hottest)."""
    weights = 1.0 / np.arange(1, n + 1)
    return weights / weights.sum()


def _element(rng: np.random.Generator) -> str:
    return _SYMBOLS[int(rng.integers(len(_SYMBOLS)))]


def pool_formula(rng: np.random.Generator) -> str:
    """A two-element formula such as ``Fe2O3``; every amount is >= 1
    (``Mg0`` names no atoms and the servable rightly fails it)."""
    return (
        f"{_element(rng)}{int(rng.integers(1, 10))}"
        f"{_element(rng)}{int(rng.integers(1, 10))}"
    )


def unique_formula(rng: np.random.Generator, index: int) -> str:
    """A three-element formula no other request index produces: the
    last amount is ``index + 1``, so it can never be a memo hit."""
    return f"{pool_formula(rng)}{_element(rng)}{index + 1}"


def zipf_schedule(seed: int, phases: list[tuple[float, float]]) -> list[Offer]:
    """The common population: :data:`N_TENANTS` tenants with Zipf(1)
    traffic shares; :data:`POOL_SHARE` of the inputs repeat formulas from
    a :data:`POOL_SIZE` pool (memo hits), the rest are unique."""
    rng = np.random.default_rng(seed)
    pool = [pool_formula(rng) for _ in range(POOL_SIZE)]
    offsets = phased_offsets(rng, phases)
    tenants = rng.choice(N_TENANTS, size=len(offsets), p=zipf_shares(N_TENANTS))
    offers = []
    for index, offset in enumerate(offsets):
        if rng.random() < POOL_SHARE:
            formula = pool[int(rng.integers(POOL_SIZE))]
        else:
            formula = unique_formula(rng, index)
        offers.append(Offer(offset, int(tenants[index]), SERVABLE, (formula,)))
    return offers


#: ``incident``'s hot tenant: 250 rps with one 700 rps burst. With the
#: light tenants that is ~57% of fleet capacity outside the burst and
#: ~120% inside it. The burst is under a third of the offered requests,
#: so the median stays in the calm mode and the tail in the overloaded
#: one whatever the seed, and it is long enough for load shedding to
#: settle (a 1.5 s burst ends while the alert is still deciding, and the
#: tail then swings with the seed).
INCIDENT_HOT_PHASES = ((4.0, 250.0), (3.0, 700.0), (5.0, 250.0))
INCIDENT_LIGHT_RPS = 150.0


def incident_schedule(seed: int, scale: float) -> list[Offer]:
    """One hot tenant following :data:`INCIDENT_HOT_PHASES` while 15
    light tenants share a constant :data:`INCIDENT_LIGHT_RPS`; every
    input is unique."""
    rng = np.random.default_rng(seed)
    hot_phases = [(duration * scale, rate) for duration, rate in INCIDENT_HOT_PHASES]
    total_s = sum(duration for duration, _ in hot_phases)
    arrivals = [(offset, 0) for offset in phased_offsets(rng, hot_phases)]
    light = phased_offsets(rng, [(total_s, INCIDENT_LIGHT_RPS)])
    light_tenants = rng.integers(1, N_TENANTS, size=len(light))
    arrivals.extend(zip(light, (int(t) for t in light_tenants)))
    arrivals.sort()
    return [
        Offer(offset, tenant, SERVABLE, (unique_formula(rng, index),))
        for index, (offset, tenant) in enumerate(arrivals)
    ]


def lane_churn_schedule(seed: int, scale: float) -> list[Offer]:
    """Tenants arrive in waves of concurrently active lanes; a wave asks
    once per tenant in shuffled order, then once more in a fresh order,
    so a lane's two ``noop`` requests (distinct arguments) practically
    never share a coalescing window."""
    rng = np.random.default_rng(seed)
    n_tenants = max(2, int(round(1_600 * scale)))
    wave = max(1, int(round(400 * scale)))
    order: list[int] = []
    for first in range(0, n_tenants, wave):
        members = np.arange(first, min(first + wave, n_tenants))
        for _ in range(2):
            order.extend(int(t) for t in rng.permutation(members))
    offsets = phased_offsets(rng, [(len(order) / LANE_CHURN_RPS, LANE_CHURN_RPS)])
    return [
        Offer(offset, tenant, "noop", (index,))
        for index, (offset, tenant) in enumerate(zip(offsets, order))
    ]


# -- stacks --------------------------------------------------------------------------
@dataclass
class Stack:
    """One built serving stack plus its schedule.

    ``serve`` is the timed call; it returns the ``GatewayResult`` of
    every offer that got an outcome. The remaining handles are what the
    metric code reads afterwards, through public attributes only.
    """

    offers: list[Offer]
    requests: list[TaskRequest]
    workers: list
    serve: Callable[[], list]
    #: ``() -> TaskQueue`` — a crash-restart swaps the queue object.
    queue: Callable[[], object]
    #: ``incident`` only; its alert engine and tracer hang off it.
    controller: FleetController | None = None
    #: The :class:`ChaosOutcome` of each ``serve`` on ``crash_recovery``.
    chaos: list = field(default_factory=list)


def _population(testbed, n_tenants: int) -> tuple[TenantPolicyTable, list[str]]:
    """``n_tenants`` equal-weight tenants, one authenticated user each."""
    policies = TenantPolicyTable()
    tokens = []
    for i in range(n_tenants):
        name = f"t{i:05d}"
        policies.register(TenantPolicy(name=name))
        identity, token = testbed.new_user(f"user{i:05d}")
        policies.bind_identity(identity, name)
        tokens.append(token)
    return policies, tokens


def _fleet_workers(testbed, n_workers: int) -> list:
    return [testbed.add_fleet_worker(f"w{i}") for i in range(n_workers)]


def _skip_cold_start(testbed, workers: list) -> None:
    """Advance global time past the workers' deployment cold starts, so
    the schedule measures a warm fleet (set-up cost is ``setup_s``)."""
    testbed.clock.advance_to(
        max([testbed.clock.now()] + [w.clock.now() for w in workers])
    )


def _arrivals(offers, tokens) -> tuple[list[TaskRequest], list[tuple]]:
    requests = [TaskRequest(offer.servable, args=offer.args) for offer in offers]
    arrivals = [
        (offer.offset_s, tokens[offer.tenant], request)
        for offer, request in zip(offers, requests)
    ]
    return requests, arrivals


def _gateway_stack(
    seed: int,
    zoo,
    offers: list[Offer],
    n_tenants: int = N_TENANTS,
    memoize: bool = True,
    durable: bool = False,
) -> Stack:
    """Bare data plane (optionally journaled) over the common fleet."""
    testbed = build_testbed(seed=seed, jitter=False, memoize_tm=memoize)
    policies, tokens = _population(testbed, n_tenants)
    workers = _fleet_workers(testbed, N_WORKERS)
    gateway = testbed.enable_gateway(
        policies=policies,
        workers=workers,
        max_batch_size=MAX_BATCH_SIZE,
        max_coalesce_delay_s=COALESCE_DELAY_S,
        durable_store=InMemoryDurableStore() if durable else None,
        snapshot_every_records=SNAPSHOT_EVERY_RECORDS,
    )
    servable = zoo[offers[0].servable]
    published = testbed.management.publish(testbed.token, servable)
    gateway.runtime.place(servable, published.build.image, copies=N_WORKERS)
    _skip_cold_start(testbed, workers)
    requests, arrivals = _arrivals(offers, tokens)
    return Stack(
        offers=offers,
        requests=requests,
        workers=workers,
        serve=lambda: gateway.serve(arrivals),
        queue=lambda: gateway.runtime.queue,
    )


def build_steady(seed: int, scale: float, zoo) -> Stack:
    """Bare data plane at ~70% of its knee; memo on, 25% repeated inputs."""
    duration_s = 12_000 * scale / STEADY_RATE_RPS
    offers = zipf_schedule(seed, [(duration_s, STEADY_RATE_RPS)])
    return _gateway_stack(seed, zoo, offers)


def build_max_rate(seed: int, scale: float, zoo) -> Stack:
    """``steady``'s stack under a rising staircase of offered rates. The
    backlog carries from rung to rung, so past the knee latency only
    grows: the first rung to miss the limit ends the passing prefix."""
    phases = [(LADDER_RUNG_S * scale, rate) for rate in LADDER_RPS]
    return _gateway_stack(seed, zoo, zipf_schedule(seed, phases))


def ladder_rung(offset_s: float, scale: float) -> int:
    """Index into :data:`LADDER_RPS` of the rung an offer was due in."""
    return min(int(offset_s / (LADDER_RUNG_S * scale)), len(LADDER_RPS) - 1)


def build_durable(seed: int, scale: float, zoo) -> Stack:
    """``steady``'s population with the write-ahead journal attached."""
    duration_s = 5_000 * scale / STEADY_RATE_RPS
    offers = zipf_schedule(seed, [(duration_s, STEADY_RATE_RPS)])
    return _gateway_stack(seed, zoo, offers, durable=True)


def build_lane_churn(seed: int, scale: float, zoo) -> Stack:
    """Thousands of short-lived tenant lanes over a free servable."""
    offers = lane_churn_schedule(seed, scale)
    n_tenants = 1 + max(offer.tenant for offer in offers)
    return _gateway_stack(seed, zoo, offers, n_tenants=n_tenants, memoize=False)


#: ``crash_recovery``: calm -> overload (a backlog builds) -> drain, with
#: four crashes at these virtual offsets, one per injection point.
CRASH_PHASES = ((5.0, 400.0), (1.0, 1200.0), (9.0, 300.0))
CRASH_PLANS = (
    (2.5, "post_admission"),
    (5.7, "mid_batch"),
    (6.3, "pre_settle"),
    (7.5, "post_claim"),
)
RESTART_COST_S = 0.25


def build_crash_recovery(seed: int, scale: float, zoo) -> Stack:
    """``durable``'s stack under :class:`ChaosHarness`, crashed four times."""
    testbed = build_testbed(seed=seed, jitter=False, memoize_tm=True)
    policies, tokens = _population(testbed, N_TENANTS)
    workers = _fleet_workers(testbed, N_WORKERS)
    published = testbed.management.publish(testbed.token, zoo[SERVABLE])
    harness = ChaosHarness(
        clock=testbed.clock,
        auth=testbed.auth,
        policies=policies,
        workers=workers,
        placements=[
            {
                "servable": zoo[SERVABLE],
                "image": published.build.image,
                "copies": N_WORKERS,
            }
        ],
        store=InMemoryDurableStore(),
        restart_cost_s=RESTART_COST_S,
        snapshot_every_records=SNAPSHOT_EVERY_RECORDS,
        runtime_kwargs={
            "max_batch_size": MAX_BATCH_SIZE,
            "max_coalesce_delay_s": COALESCE_DELAY_S,
        },
    )
    harness.start()
    _skip_cold_start(testbed, workers)
    offers = zipf_schedule(
        seed, [(duration * scale, rate) for duration, rate in CRASH_PHASES]
    )
    requests, arrivals = _arrivals(offers, tokens)
    chaos: list = []

    def serve() -> list:
        start = testbed.clock.now()
        plans = tuple(
            CrashPlan(point, not_before_s=start + offset * scale)
            for offset, point in CRASH_PLANS
        )
        outcome = harness.run(arrivals, plans=plans)
        chaos.append(outcome)
        return [*outcome.settled.values(), *outcome.denied]

    return Stack(
        offers=offers,
        requests=requests,
        workers=workers,
        serve=serve,
        queue=lambda: harness.queue,
        chaos=chaos,
    )


class _ControllerMux:
    """The runtime has one controller slot; chain several off it."""

    def __init__(self, *controllers) -> None:
        self.controllers = controllers

    def next_wakeup(self) -> float:
        return min(c.next_wakeup() for c in self.controllers)

    def on_tick(self) -> None:
        for controller in self.controllers:
            controller.on_tick()


def build_incident(seed: int, scale: float, zoo) -> Stack:
    """Everything but the journal: the common fleet (pinned at four
    workers) under the reactive control plane, the alert loop, and
    request tracing."""
    testbed = build_testbed(seed=seed, jitter=False, memoize_tm=False)
    policies, tokens = _population(testbed, N_TENANTS)
    workers = _fleet_workers(testbed, 4)
    tracer = Tracer(sample_rate=0.02)
    runtime = ServingRuntime(
        testbed.clock,
        testbed.management.queue,
        workers,
        max_batch_size=8,
        max_coalesce_delay_s=COALESCE_DELAY_S,
        tracer=tracer,
    )
    published = testbed.management.publish(testbed.token, zoo[SERVABLE])
    runtime.place(zoo[SERVABLE], published.build.image, copies=4)
    monitor = SLOBurnMonitor()
    gateway = ServingGateway(testbed.auth, runtime, policies, slo_monitor=monitor)
    store = SeriesStore()
    engine = AlertEngine(
        store,
        rules=[
            BurnRateRule(f"burn:{tenant}", tenant, fast_window_s=0.3, slow_window_s=1.0)
            for tenant in policies.tenants()
        ],
    )
    controller = FleetController(
        runtime,
        provision_worker=testbed.add_fleet_worker,
        policy=ReactiveSLOPolicy(base=TargetUtilizationPolicy(), gateway=gateway),
        interval_s=0.25,
        min_workers=4,
        max_workers=4,
        autoscale_replicas=False,
        gateway=gateway,
        slo_monitor=monitor,
        alert_engine=engine,
    )
    loop = ObservabilityLoop(
        testbed.clock,
        build_hub(
            runtime=runtime,
            gateway=gateway,
            controller=controller,
            tracer=tracer,
            monitor=monitor,
        ),
        store=store,
        engine=engine,
        monitor=monitor,
        sampler=AdaptiveSampler(tracer),
        scrape_interval_s=0.1,
    )
    # The loop ticks first so each reconcile drains fresh transitions.
    runtime.attach_controller(_ControllerMux(loop, controller))
    _skip_cold_start(testbed, workers)
    offers = incident_schedule(seed, scale)
    requests, arrivals = _arrivals(offers, tokens)
    return Stack(
        offers=offers,
        requests=requests,
        workers=workers,
        serve=lambda: gateway.serve(arrivals),
        queue=lambda: runtime.queue,
        controller=controller,
    )


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists and how its stack is built."""

    name: str
    why: str
    build: Callable[[int, float, object], Stack]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady",
            "bare data plane at 70% of its knee; the common path, no journal, "
            "controller or tracer",
            build_steady,
        ),
        Workload(
            "durable",
            "steady's traffic with the write-ahead journal attached: isolates "
            "the durability append path",
            build_durable,
        ),
        Workload(
            "crash_recovery",
            "journaled stack through overload and four crashes: replay, restore "
            "and deep snapshots beside append",
            build_crash_recovery,
        ),
        Workload(
            "incident",
            "hot-tenant overload under fleet controller, alert loop and tracer; "
            "no journal",
            build_incident,
        ),
        Workload(
            "lane_churn",
            "thousands of short-lived tenant lanes on a free servable: batch "
            "size 1, lane lifecycle is all the cost",
            build_lane_churn,
        ),
        Workload(
            "max_rate",
            "steady's stack under a 500-1000 rps staircase: past the knee the "
            "backlog grows, so attainment and goodput track capacity",
            build_max_rate,
        ),
    )
}
