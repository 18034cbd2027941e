"""IPythonParallel-style engine pool with load balancing.

On Kubernetes, Parsl "deploys IPythonParallel (IPP) engines in each
servable container ... load balancing them automatically across the
available pods" (SS IV-C). The pool models each engine's availability as
a *busy-until* virtual timestamp: dispatching a task routes it to the
engine that frees earliest, charges dispatch overhead on the shared
clock, and advances that engine's busy window by the task's execution
cost. This queueing model is exactly what produces Fig. 7's shape —
throughput scales with replicas until dispatch overhead dominates.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.cluster.pod import Pod
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


class NoEnginesError(RuntimeError):
    """Raised when the pool has no live engines."""


class IPPEnginePool:
    """A pool of engines, one per servable pod.

    Parameters
    ----------
    clock:
        Shared virtual clock.
    pods:
        The deployment's pods; one IPP engine runs in each.
    dispatch_cost_s:
        Per-task serialization/dispatch overhead charged to the clock
        (the Task-Manager-side serial bottleneck; the executor charges
        result collection itself).
    """

    def __init__(
        self,
        clock: VirtualClock,
        pods: list[Pod],
        dispatch_cost_s: float = cal.PARSL_DISPATCH_S,
    ) -> None:
        self.clock = clock
        self.pods = list(pods)
        self.dispatch_cost_s = dispatch_cost_s
        self.tasks_dispatched = 0

    def set_pods(self, pods: list[Pod]) -> None:
        """Replace the engine set (after scale up/down)."""
        self.pods = list(pods)

    def _live_pods(self) -> list[Pod]:
        live = [p for p in self.pods if p.ready]
        if not live:
            raise NoEnginesError("no live IPP engines")
        return live

    def select(self) -> Pod:
        """Pick the least-busy engine *without* charging dispatch cost.

        Used by callers that account dispatch explicitly (the DLHub
        executor charges its own calibrated costs around the selection).
        """
        return min(self._live_pods(), key=lambda p: (p.busy_until, p.name))

    def dispatch(
        self,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        exec_cost_s: float = 0.0,
    ) -> Any:
        """Run ``fn`` on the least-busy engine; returns its result.

        Virtual-time accounting:

        1. dispatch overhead (serial, charged to the clock now),
        2. the chosen engine's queue: the task *starts* at
           ``max(now, engine.busy_until)`` and *finishes* at start +
           ``exec_cost_s`` — the clock only advances to the finish time
           when the caller synchronously waits, which for the serial
           Task Manager loop means advancing to the dispatch completion
           only; callers that batch use :meth:`drain` to jump to the
           last completion.
        """
        kwargs = kwargs or {}
        self.clock.advance(self.dispatch_cost_s)
        pod = min(self._live_pods(), key=lambda p: (p.busy_until, p.name))
        start = max(self.clock.now(), pod.busy_until)
        result = pod.exec(*args, **kwargs) if fn is None else fn(*args, **kwargs)
        pod.busy_until = start + exec_cost_s
        self.tasks_dispatched += 1
        return result, pod

    def dispatch_to_pod(
        self,
        args: tuple = (),
        kwargs: dict | None = None,
        exec_cost_s: float = 0.0,
    ) -> tuple[Any, Pod]:
        """Dispatch a servable invocation to the least-busy pod's engine."""
        return self.dispatch(None, args, kwargs, exec_cost_s)

    def drain(self) -> float:
        """Advance the clock to the last engine completion; returns that time.

        Used by throughput experiments: after dispatching N tasks, the
        makespan is when the busiest engine finishes.
        """
        if not self.pods:
            return self.clock.now()
        last = max(p.busy_until for p in self.pods)
        if last > self.clock.now():
            self.clock.advance_to(last)
        return self.clock.now()
