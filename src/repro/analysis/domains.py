"""Domain tables: which parts of the tree obey which clock and RNG rules.

This module is the single authoritative answer to "is this file allowed
to read the wall clock / draw randomness / allocate in a hot path?".
Rules consult it; humans read it when a detlint finding surprises them.

Paths throughout are **package-relative**: ``core/runtime.py`` means
``src/repro/core/runtime.py``.
"""

from __future__ import annotations

#: Packages whose code runs on the :class:`~repro.sim.clock.VirtualClock`.
#: Time inside them is simulated time — a wall-clock read (``time.time``,
#: ``perf_counter``, ``datetime.now``, ...) desynchronizes the run from
#: the clock and breaks bit-for-bit replay. DET001 bans those reads here.
VIRTUAL_CLOCK_PACKAGES: frozenset[str] = frozenset(
    {
        "core",  # serve loop, fleet controller, telemetry, obs loop
        "gateway",  # admission, WFQ lanes, slot budget
        "messaging",  # queues timestamped in virtual time
        "cluster",  # nodes, pods, deployment cold starts
        "sim",  # the clock/rng/latency machinery itself (minus sim/clock.py)
        "bench",  # benches drive virtual-clock experiments (one wall-clock
        #          harness is file-allowlisted below)
        "durability",  # journal/recovery timestamps come from the virtual
        #          clock; file I/O is fine (DET001 bans wall-clock reads,
        #          not durable writes)
    }
)

#: Packages that never read *any* clock: pure libraries whose costs are
#: charged by the executors in virtual time. DET001 applies just as
#: strictly — a wall-clock read here would be a new dependency on real
#: time smuggled in under a "utility" label.
CLOCK_FREE_PACKAGES: frozenset[str] = frozenset(
    {
        "auth",
        "containers",
        "data",
        "matsci",
        "ml",
        "parsl",
        "search",
        "serving",
    }
)

#: Files exempt from DET001 — the only places allowed to touch the wall
#: clock, each with the reason on record (reported alongside findings so
#: the allowlist can never silently grow). Allowlisting here, not a
#: pragma, is deliberate: these files are wall-clock *by design*, not
#: line-by-line exceptions.
WALL_CLOCK_FILES: dict[str, str] = {
    "sim/clock.py": (
        "defines the VirtualClock abstraction; the clock module owns the "
        "boundary between simulated and real time"
    ),
    "bench/dispatch_overhead.py": (
        "wall-clock microbenchmark by design: measures real per-decision "
        "cost with perf_counter, gc off, min-of-repeats"
    ),
}

#: The RNG chokepoint: the one module allowed to construct numpy
#: generators. Everything else must route through
#: :func:`repro.sim.rng.generator_from_seed` / :class:`repro.sim.rng.SeededRNG`
#: (or accept a caller-provided ``np.random.Generator``), so every
#: random stream in the tree is seeded and labelled. DET002 enforces it.
RNG_CHOKEPOINT: frozenset[str] = frozenset({"sim/rng.py"})

#: Modules whose iteration order feeds scheduling or settlement
#: decisions. Iterating an unordered collection here reorders dispatch
#: picks / settle order between runs, which poisons every deterministic
#: baseline. DET003 watches these.
DECISION_MODULES: frozenset[str] = frozenset(
    {
        "core/runtime.py",
        "core/fleet.py",
        "core/obsloop.py",
        "gateway/gateway.py",
        "gateway/scheduler.py",
    }
)

#: Modules accumulating float metrics / forecasts. ``sum()`` over an
#: unordered collection is bit-unstable (float addition does not
#: associate); DET004 requires an ordered source or an explicit sort.
ACCUMULATION_MODULES: frozenset[str] = frozenset(
    {
        "core/adaptive.py",
        "core/metrics.py",
        "core/obsloop.py",
        "core/telemetry.py",
    }
)

#: Registered per-tick hot functions, ``relpath -> {Class.method, ...}``.
#: PR 6 made the scheduling decisions O(log n) / O(1) and the timer-heap
#: kernel made a serve-loop wake-up cost what is due, not what exists —
#: the loop, settlement, routing and the gateway hooks it calls no
#: longer rebuild a list or walk the fleet per wake-up. HOT001 flags new
#: list/dict/set comprehensions and ``.copy()`` calls inside them so
#: allocation creep needs a written justification, not just a quiet diff.
HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "core/runtime.py": frozenset(
        {
            "ServingRuntime._next_window",
            "ServingRuntime.serve",
            "ServingRuntime._settle",
            "ServingRuntime._route",
        }
    ),
    "gateway/gateway.py": frozenset(
        {
            "ServingGateway._pump",
            "ServingGateway.on_tick",
            "ServingGateway._derive_budget",
            "ServingGateway.on_settled",
        }
    ),
    "gateway/scheduler.py": frozenset(
        {"WeightedFairScheduler.dequeue_eligible", "WeightedFairScheduler.pop_next"}
    ),
    "core/fleet.py": frozenset({"FleetController.observe"}),
}


def package_of(relpath: str) -> str:
    """Top-level package of a package-relative path (``'' `` at root)."""
    head, _, tail = relpath.partition("/")
    return head if tail else ""


def wall_clock_reason(relpath: str) -> str | None:
    """The allowlist reason if ``relpath`` may read the wall clock."""
    return WALL_CLOCK_FILES.get(relpath)


def is_clock_checked(relpath: str) -> bool:
    """Whether DET001 applies to ``relpath``.

    True for every file of a virtual-clock or clock-free package that is
    not on the wall-clock allowlist; root-level modules are checked too.
    """
    if relpath in WALL_CLOCK_FILES:
        return False
    pkg = package_of(relpath)
    return pkg == "" or pkg in VIRTUAL_CLOCK_PACKAGES or pkg in CLOCK_FREE_PACKAGES
