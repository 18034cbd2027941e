"""One record per request: objects the serving stack builds per settle.

Every class defined under ``src/repro`` (NamedTuples included; the
servables' ``matsci`` / ``ml`` internals and the ``bench`` harnesses
excluded, as are enums and exceptions) gets its constructor
wrapped for the duration of one ``ServingGateway.serve`` call, and what
was constructed inside it is divided by the requests that settled. The
caller's ``TaskRequest`` objects are built before the call, so they
are not counted.

At the commit before the request record, the same two stacks counted
(seed 0, per settled request; after it, then after the Task Manager
took the records, in brackets)::

    class               steady-shaped          lane_churn-shaped
    TaskResult           1.238 [0.393 | -]      1.000 [1.000 | -]
    AdmissionDecision    1.000 [0.040 | 0.040]  1.000 [0.500 | 0.500]
    GatewayResult        1.000 [-]              1.000 [-]
    ScheduledItem        1.000 [-]              1.000 [-]
    QueuedMessage        1.000 [-]              1.000 [-]
    RuntimeResult        1.000 [-]              1.000 [-]
    RequestRecord        -     [1.000 | 1.000]  -     [1.000 | 1.000]
    BatchChunk           0.465 [0.465 | 0.233]  -
    _PendingBatch        0.393 [-]              1.000 [-]
    InvocationOutcome    0.375 [0.375 | 0.375]  1.000 [1.000 | 1.000]
    TaskRequest          0.237 [0.237 | -]      -
    ConcurrentRegion     0.233 [0.233 | 0.233]  -
    _Branch              0.233 [0.233 | 0.233]  -
    TenantCounters       0.040 [0.040 | 0.040]  0.500 [0.500 | 0.500]
    total                8.213 [3.015 | 2.152]  8.500 [4.000 | 3.000]

The record replaces the gateway result, the lane entry object, the
queue message, the runtime result, the per-item task result and the
parked-batch object; an admitted decision is one shared value per
``(tenant, servable)``. The Task Manager then writes outcomes straight
into the claimed records, so the batch envelope ``TaskRequest``, every
``TaskResult`` and the rebased copy of each ``BatchChunk`` are gone.
"""

from __future__ import annotations

import collections
import contextlib
import enum
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.core.record import RequestRecord
from repro.core.tasks import TaskRequest
from repro.core.telemetry import Tracer
from repro.core.testbed import build_testbed
from repro.core.zoo import build_zoo
from repro.gateway import TenantPolicy, TenantPolicyTable

#: The parent's classes, as counted in the module docstring.
PARENT_CLASSES = {
    "TaskResult",
    "AdmissionDecision",
    "GatewayResult",
    "ScheduledItem",
    "QueuedMessage",
    "RuntimeResult",
    "BatchChunk",
    "_PendingBatch",
    "InvocationOutcome",
    "TaskRequest",
    "ConcurrentRegion",
    "_Branch",
    "TenantCounters",
}


def repro_classes() -> list[type]:
    """Every class defined in a ``repro`` module, bar the servables'
    internals, enums and exceptions."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith(("repro.matsci", "repro.ml", "repro.bench")):
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and not issubclass(obj, (enum.Enum, BaseException))
            ):
                found[obj.__qualname__, obj.__module__] = obj
    return list(found.values())


@contextlib.contextmanager
def counting_constructions():
    """Count, by class name, instances of :func:`repro_classes` built
    while the block runs. A class is counted at its own constructor
    only, so a subclass is not counted as its base as well."""
    counts: collections.Counter = collections.Counter()
    # Resolve every constructor before installing any wrapper: ``own``
    # is what the class itself defines, put back (or removed) after.
    originals = []
    for cls in repro_classes():
        attr = "__new__" if issubclass(cls, tuple) else "__init__"
        originals.append((cls, attr, getattr(cls, attr), vars(cls).get(attr)))
    for cls, attr, resolved, _ in originals:
        if attr == "__new__":

            def new(klass, *args, _cls=cls, _orig=resolved, **kwargs):
                if klass is _cls:
                    counts[_cls.__qualname__] += 1
                return _orig(klass, *args, **kwargs)

            cls.__new__ = new
        else:

            def init(self, *args, _cls=cls, _orig=resolved, **kwargs):
                if type(self) is _cls:
                    counts[_cls.__qualname__] += 1
                return _orig(self, *args, **kwargs)

            cls.__init__ = init
    try:
        yield counts
    finally:
        for cls, attr, _, own in originals:
            if own is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, own)


@pytest.fixture(scope="module")
def zoo():
    return build_zoo(oqmd_entries=50, n_estimators=4)


def gateway_stack(zoo, servable: str, n_tenants: int, memoize: bool):
    """Four own-clock workers behind a gateway, one identity-bound user
    per tenant, ``servable`` placed on every worker and warm."""
    testbed = build_testbed(seed=0, jitter=False, memoize_tm=memoize)
    policies = TenantPolicyTable()
    tokens = []
    for i in range(n_tenants):
        policies.register(TenantPolicy(name=f"t{i}"))
        identity, token = testbed.new_user(f"user{i}")
        policies.bind_identity(identity, f"t{i}")
        tokens.append(token)
    workers = [testbed.add_fleet_worker(f"w{i}") for i in range(4)]
    gateway = testbed.enable_gateway(
        policies=policies, workers=workers, max_batch_size=16, max_coalesce_delay_s=0.005
    )
    published = testbed.management.publish(testbed.token, zoo[servable])
    gateway.runtime.place(zoo[servable], published.build.image, copies=4)
    testbed.clock.advance_to(max([testbed.clock.now()] + [w.clock.now() for w in workers]))
    return gateway, tokens


def steady_arrivals(tokens, n=400, rate_rps=500.0):
    """Zipf-skewed tenants at 500 rps; a quarter of the inputs repeat
    from a small pool (memo hits), the rest are unique."""
    rng = np.random.default_rng(0)
    shares = 1.0 / np.arange(1, len(tokens) + 1)
    tenants = rng.choice(len(tokens), size=n, p=shares / shares.sum())
    offsets = np.sort(rng.random(n) * n / rate_rps)
    pool = [f"Fe{k + 1}O{k + 2}" for k in range(16)]
    return [
        (
            float(offsets[i]),
            tokens[int(tenants[i])],
            TaskRequest(
                "matminer_util",
                args=(pool[i % 16] if rng.random() < 0.25 else f"Fe2O3Mg{i + 1}",),
            ),
        )
        for i in range(n)
    ]


def lane_churn_arrivals(tokens, rate_rps=230.0):
    """Every tenant asks twice, in two shuffled passes, at 230 rps."""
    rng = np.random.default_rng(0)
    order = [int(t) for _ in range(2) for t in rng.permutation(len(tokens))]
    return [
        (i / rate_rps, tokens[tenant], TaskRequest("noop", args=(i,)))
        for i, tenant in enumerate(order)
    ]


def per_settled(gateway, arrivals):
    with counting_constructions() as counts:
        records = gateway.serve(arrivals)
    settled = [r for r in records if r.completed]
    assert len(settled) == len(arrivals)
    return counts, len(settled)


def test_a_steady_shaped_stack_builds_at_most_half_the_objects(zoo):
    gateway, tokens = gateway_stack(zoo, "matminer_util", 16, memoize=True)
    counts, settled = per_settled(gateway, steady_arrivals(tokens))
    assert counts["RequestRecord"] == settled  # one record per request
    assert sum(counts.values()) / settled <= 2.2, counts
    assert set(counts) - {"RequestRecord"} <= PARENT_CLASSES, counts
    # No batch envelope, and no result object on any path.
    assert counts["TaskRequest"] == counts["TaskResult"] == 0, counts


def test_a_lane_churn_shaped_stack_builds_at_most_three(zoo):
    gateway, tokens = gateway_stack(zoo, "noop", 100, memoize=False)
    counts, settled = per_settled(gateway, lane_churn_arrivals(tokens))
    assert counts["RequestRecord"] == settled
    assert sum(counts.values()) / settled <= 3.0, counts
    assert set(counts) - {"RequestRecord"} <= PARENT_CLASSES, counts
    assert counts["TaskRequest"] == counts["TaskResult"] == 0, counts


def test_a_traced_stack_builds_a_trace_only_for_the_requests_it_keeps(zoo):
    """The door only head-samples: a request the tracer drops costs no
    ``Trace`` and no ``MemberRecord``, and a kept one costs one each."""
    gateway, tokens = gateway_stack(zoo, "matminer_util", 16, memoize=True)
    tracer = Tracer(sample_rate=0.05)
    gateway.tracer = gateway.runtime.tracer = tracer
    counts, settled = per_settled(gateway, steady_arrivals(tokens))
    kept = tracer.kept_sampled + tracer.kept_tail
    assert 0 < kept < settled and tracer.dropped == settled - kept
    assert counts["Trace"] == counts["MemberRecord"] == kept, counts
    assert len(tracer.retained) == kept


def test_the_record_is_the_message_lane_item_and_result(zoo):
    """The object the door returned is the one the queue held and the
    runtime settled: a gateway-less submit gets the same record type."""
    gateway, tokens = gateway_stack(zoo, "noop", 1, memoize=False)
    record = gateway.offer(TaskRequest("noop", args=(1,)), token=tokens[0])
    assert isinstance(record, RequestRecord) and not record.completed
    queued = gateway.runtime.queue.oldest_ready("servable/tenant-t0/noop")
    assert queued is record
    settled = gateway.runtime.drain()
    assert settled == [record] and record.completed and record.ok
    assert record.runtime_result.latency == record.completed_at - record.enqueued_at
    assert record.latency == record.completed_at - record.arrived_at
    assert record.result.value == record.value == "hello world"
    plain = gateway.runtime.submit(TaskRequest("noop", args=(2,)))
    assert isinstance(plain, RequestRecord) and plain.decision is None
    assert gateway.runtime.drain() == [plain] and plain.ok
