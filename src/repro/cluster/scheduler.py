"""Pod scheduler: least-loaded placement with resource constraints.

The scheduler assigns pending pods to the node with the most available
CPU (ties broken by name for determinism), never exceeding any node's
capacity — the invariant the property tests check.
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.sim import calibration as cal
from repro.sim.clock import VirtualClock


class SchedulingError(RuntimeError):
    """Raised when no node can fit a pod."""


class Scheduler:
    """Least-loaded bin-packing scheduler."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.scheduled = 0
        self.failures = 0

    def schedule(self, pod: Pod, nodes: list[Node]) -> Node:
        """Bind ``pod`` to the best-fitting node and start it.

        Charges pod scheduling overhead plus container start cost (via the
        node runtime) to the virtual clock.
        """
        candidates = [n for n in nodes if n.can_fit(pod.request)]
        if not candidates:
            self.failures += 1
            raise SchedulingError(
                f"no node can fit pod {pod.name} "
                f"(cpu={pod.request.cpu_millicores}m, mem={pod.request.memory_bytes}B)"
            )
        best = max(
            candidates,
            key=lambda n: (
                n.available.cpu_millicores,
                n.available.memory_bytes,
                n.name,
            ),
        )
        best.allocate(pod.request)
        pod.node = best
        self.clock.advance(cal.POD_SCHEDULE_S)
        pod.start()
        self.scheduled += 1
        return best
