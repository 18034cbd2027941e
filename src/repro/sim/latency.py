"""Network and latency cost models.

Each hop in the DLHub architecture is a :class:`NetworkLink` with a
round-trip time and bandwidth. A :class:`LatencyModel` bundles the links of
a deployment (client -> Management Service -> Task Manager -> cluster) and
charges transfer costs to the shared :class:`VirtualClock`.

Jitter is injected through a :data:`JitterModel` — :class:`NoJitter`, or
a :class:`GaussianJitter` driven by a :class:`~repro.sim.rng.SeededRNG` —
so experiments remain reproducible
while still showing realistic 5th/95th-percentile spreads like the paper's
error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.sim.clock import VirtualClock
from repro.sim.rng import SeededRNG


class NoJitter:
    """Deterministic jitter model: returns the nominal latency unchanged."""

    def sample(self, nominal: float) -> float:
        return nominal


class GaussianJitter:
    """Gaussian multiplicative jitter, truncated to stay positive.

    Parameters
    ----------
    rng:
        Seeded random stream.
    relative_sigma:
        Standard deviation as a fraction of the nominal latency (e.g. 0.1
        for 10% spread).
    floor_fraction:
        Sampled latency is clamped to at least this fraction of nominal,
        keeping the model physically sensible.
    """

    def __init__(
        self,
        rng: SeededRNG,
        relative_sigma: float = 0.08,
        floor_fraction: float = 0.5,
    ) -> None:
        if relative_sigma < 0:
            raise ValueError("relative_sigma must be >= 0")
        if not 0 < floor_fraction <= 1:
            raise ValueError("floor_fraction must be in (0, 1]")
        self._rng = rng
        self.relative_sigma = relative_sigma
        self.floor_fraction = floor_fraction

    def sample(self, nominal: float) -> float:
        if nominal == 0:
            return 0.0
        sampled = float(self._rng.normal(nominal, nominal * self.relative_sigma))
        return max(sampled, nominal * self.floor_fraction)


#: Maps a nominal latency to a sampled latency (``sample(nominal)``).
JitterModel = NoJitter | GaussianJitter


@dataclass
class NetworkLink:
    """A bidirectional network link with RTT and bandwidth.

    Parameters
    ----------
    name:
        Human-readable link label (for metrics and debugging).
    rtt_s:
        Round-trip time in seconds.
    bandwidth_bps:
        Usable bandwidth in bytes/second (not bits). Default 1.25e9
        corresponds to a 10 GbE link at ~full utilisation.
    jitter:
        Jitter model applied to each latency charge.
    """

    name: str
    rtt_s: float
    bandwidth_bps: float = 1.25e9
    jitter: JitterModel = field(default_factory=NoJitter)

    def __post_init__(self) -> None:
        if self.rtt_s < 0:
            raise ValueError(f"rtt_s must be >= 0, got {self.rtt_s}")
        if self.bandwidth_bps <= 0:
            raise ValueError(f"bandwidth_bps must be > 0, got {self.bandwidth_bps}")

    def one_way_latency(self, payload_bytes: int = 0) -> float:
        """Latency of sending ``payload_bytes`` one way (propagation + transfer)."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0")
        nominal = self.rtt_s / 2.0 + payload_bytes / self.bandwidth_bps
        return self.jitter.sample(nominal)

    def round_trip_latency(self, request_bytes: int = 0, response_bytes: int = 0) -> float:
        """Latency of a request/response exchange over this link."""
        return self.one_way_latency(request_bytes) + self.one_way_latency(response_bytes)

    def charge_send(self, clock: VirtualClock, payload_bytes: int = 0) -> float:
        """Advance ``clock`` by a one-way send; returns the charged seconds."""
        cost = self.one_way_latency(payload_bytes)
        clock.advance(cost)
        return cost

    def charge_round_trip(
        self, clock: VirtualClock, request_bytes: int = 0, response_bytes: int = 0
    ) -> float:
        """Advance ``clock`` by a full request/response exchange."""
        cost = self.round_trip_latency(request_bytes, response_bytes)
        clock.advance(cost)
        return cost


@dataclass
class LatencyModel:
    """The set of links in a DLHub deployment.

    Mirrors the paper's testbed (SS V-A): the Management Service runs on EC2
    with a 20.7 ms RTT to the Task Manager on Cooley, which sits 0.17 ms
    from the PetrelKube Kubernetes cluster hosting servables. The client is
    co-located with the Management Service driver.
    """

    client_to_management: NetworkLink
    management_to_task_manager: NetworkLink
    task_manager_to_cluster: NetworkLink
    intra_cluster: NetworkLink

    @classmethod
    def paper_testbed(cls, rng: SeededRNG | None = None, jitter: bool = True) -> "LatencyModel":
        """Build the testbed latency model from calibrated constants."""
        from repro.sim import calibration as cal

        def make_jitter(label: str) -> JitterModel:
            if jitter and rng is not None:
                return GaussianJitter(rng.child(label), cal.JITTER_RELATIVE_SIGMA)
            return NoJitter()

        return cls(
            client_to_management=NetworkLink(
                "client<->MS", cal.RTT_CLIENT_MS_S, cal.BANDWIDTH_WAN_BPS, make_jitter("c-ms")
            ),
            management_to_task_manager=NetworkLink(
                "MS<->TM", cal.RTT_MS_TM_S, cal.BANDWIDTH_WAN_BPS, make_jitter("ms-tm")
            ),
            task_manager_to_cluster=NetworkLink(
                "TM<->K8s", cal.RTT_TM_CLUSTER_S, cal.BANDWIDTH_LAN_BPS, make_jitter("tm-k8s")
            ),
            intra_cluster=NetworkLink(
                "pod<->pod", cal.RTT_INTRA_CLUSTER_S, cal.BANDWIDTH_LAN_BPS, make_jitter("intra")
            ),
        )

    @classmethod
    def zero(cls) -> "LatencyModel":
        """An all-zero latency model (useful for functional tests)."""
        inf_bw = 1e18
        return cls(
            client_to_management=NetworkLink("client<->MS", 0.0, inf_bw),
            management_to_task_manager=NetworkLink("MS<->TM", 0.0, inf_bw),
            task_manager_to_cluster=NetworkLink("TM<->K8s", 0.0, inf_bw),
            intra_cluster=NetworkLink("pod<->pod", 0.0, inf_bw),
        )
