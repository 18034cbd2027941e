"""Extensions from the paper's future work (SS V-B3, SS VII).

* "we intend to use such servable profiles to design adaptive batching
  algorithms that intelligently distribute serving requests to reduce
  latency" -> :class:`ServableProfile`, whose fitted line sizes the
  serving runtime's ``max_batch_size`` to a per-batch latency budget
  (:meth:`ServableProfile.max_batch_for_latency`); the runtime's
  coalescing window stays the one batching mechanism.
* "optimization techniques for automated tuning of servable execution"
  -> :class:`Autoscaler`, which inverts the Fig. 7 saturation model to
  pick replica counts for a target arrival rate.
* predictive capacity planning -> :class:`ArrivalForecaster`, a pure
  Holt trend projector over arrival-rate samples that lets a fleet
  controller provision capacity one cold-start lead time *ahead* of a
  spike instead of after it.

All of these work from *measured* signals: the profile fits the Fig. 6
linear model (invocation = intercept + slope * n) from observed batch
timings, the autoscaler and :func:`per_copy_capacity_rps` share one
replica-aware batch cost model, and the forecaster consumes the arrival
history a controller's ``observe`` loop already collects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.executors import ExecutorError, ParslServableExecutor
from repro.sim import calibration as cal


class ProfileError(RuntimeError):
    """Raised when a profile has too little data to act on."""


# ---------------------------------------------------------------------------
# Shared capacity model (coalesced micro-batches over replica pods)
# ---------------------------------------------------------------------------
def per_copy_capacity_rps(
    inference_cost_s: float, max_batch_size: int, replicas: int = 1
) -> float:
    """Sustainable single-copy throughput under full micro-batches.

    One coalesced batch pays the serial per-batch overheads (Task
    Manager handling/routing, Parsl dispatch/collect, servable shim)
    once, plus the calibrated marginal cost per item — the same
    amortization model as SS V-B3. With ``replicas`` pods behind the
    copy, the batch body shards across them (replica-aware
    ``invoke_batch``), so the per-batch execution time is the largest
    chunk's — ``ceil(B / replicas)`` items — not the whole batch's.

    This is *the* capacity model: the fleet controller plans copies
    from it, the :class:`Autoscaler` inverts it to size replicas for
    coalesced traffic (see :func:`replicas_for_rate`), and the gateway's
    slot budget is proportional to the same ``max_batch_size``.
    """
    if max_batch_size < 1:
        raise ValueError("max_batch_size must be >= 1")
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    serial = (
        cal.TASK_MANAGER_HANDLING_S
        + cal.TASK_MANAGER_ROUTING_S
        + cal.PARSL_DISPATCH_S
        + cal.SERVABLE_SHIM_S
        + cal.PARSL_COLLECT_S
    )
    per_item = inference_cost_s + cal.BATCH_ITEM_MARGINAL_S
    largest_chunk = math.ceil(max_batch_size / replicas)
    return max_batch_size / (serial + largest_chunk * per_item)


def replicas_for_rate(
    inference_cost_s: float,
    max_batch_size: int,
    rate_rps: float,
    max_replicas: int = 64,
) -> int:
    """Fewest replica pods whose shared-model capacity meets ``rate_rps``.

    Inverts :func:`per_copy_capacity_rps`: capacity is non-decreasing in
    the replica count and saturates once every chunk is a single item
    (``replicas >= max_batch_size`` — the coalesced-path analogue of the
    Fig. 7 dispatch knee), so the search stops there. When even the
    saturated deployment cannot absorb the rate, the saturation point is
    returned — pods beyond it add busy cost but no capacity.
    """
    if rate_rps < 0:
        raise ValueError("rate_rps must be >= 0")
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    knee = min(max_batch_size, max_replicas)
    for replicas in range(1, knee + 1):
        if per_copy_capacity_rps(inference_cost_s, max_batch_size, replicas) >= rate_rps:
            return replicas
    return knee


# ---------------------------------------------------------------------------
# Arrival forecasting (Holt trend)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Forecast:
    """One projection of a key's arrival rate at a future instant."""

    #: Virtual time the projection targets.
    at: float
    #: Projected arrival rate (never negative).
    rate_rps: float
    #: Smoothed current rate the projection extrapolates from.
    level: float
    #: Smoothed slope (requests per second, per second).
    trend_per_s: float


#: Holt level smoothing: how hard a sample pulls the smoothed rate.
FORECAST_ALPHA = 0.5
#: Holt trend smoothing: how hard a prediction error swings the slope.
FORECAST_BETA = 0.35


@dataclass
class _TrendState:
    """Per-key Holt-style level/trend state over irregular samples."""

    level: float
    trend_per_s: float
    last_time: float


class ArrivalForecaster:
    """Holt trend projection over per-key arrival-rate samples.

    Pure and clock-free: callers feed ``(time, rate)`` samples — e.g.
    the EWMA arrival rates a fleet controller's ``observe`` already
    computes per servable — and ask for the projected rate at a future
    instant (typically *now + provisioning lead time*, so capacity
    ordered on the forecast lands before the demand does).

    The estimator is Holt's linear method adapted to irregular sample
    spacing: ``level`` tracks the smoothed rate, ``trend_per_s`` the
    smoothed slope per second, and each sample corrects both through
    its one-step prediction error. A step spike therefore swings the
    trend hard (the error is large), which is exactly the property that
    beats a pure EWMA to the punch; flat traffic keeps the trend near
    zero so the forecast never over-provisions a steady fleet. The
    smoothing gains are :data:`FORECAST_ALPHA` and
    :data:`FORECAST_BETA`.
    """

    def __init__(self) -> None:
        self._state: dict[Any, _TrendState] = {}

    def observe(self, key: Any, time_s: float, rate_rps: float) -> None:
        """Feed one arrival-rate sample for ``key`` at virtual ``time_s``.

        Samples must arrive in non-decreasing time order per key; a
        repeated timestamp refreshes the level without touching the
        trend (there is no interval to slope over).
        """
        if rate_rps < 0:
            raise ValueError("rate_rps must be >= 0")
        state = self._state.get(key)
        if state is None:
            self._state[key] = _TrendState(
                level=float(rate_rps), trend_per_s=0.0, last_time=time_s
            )
            return
        dt = time_s - state.last_time
        if dt < 0:
            raise ValueError("samples must be time-ordered per key")
        if dt == 0:
            state.level = (
                FORECAST_ALPHA * rate_rps + (1 - FORECAST_ALPHA) * state.level
            )
            return
        predicted = state.level + state.trend_per_s * dt
        error = rate_rps - predicted
        state.level = max(predicted + FORECAST_ALPHA * error, 0.0)
        # dt-scaled trend gain (Wright's irregular-interval smoothing):
        # the correction is ~FORECAST_BETA * error for small dt, so two
        # near-coincident samples differing by noise cannot explode the
        # slope the way a raw ``FORECAST_BETA * error / dt`` term would.
        gain = 1.0 - (1.0 - FORECAST_BETA) ** dt
        state.trend_per_s += gain * error / dt
        state.last_time = time_s

    def forecast(self, key: Any, at_time_s: float) -> Forecast:
        """Project ``key``'s arrival rate at ``at_time_s``.

        A key with no history projects zero (an unknown servable earns
        capacity only once traffic shows up). Projections never go
        negative — a decaying burst bottoms out at idle, it does not
        forecast anti-traffic.
        """
        state = self._state.get(key)
        if state is None:
            return Forecast(at=at_time_s, rate_rps=0.0, level=0.0, trend_per_s=0.0)
        horizon = max(at_time_s - state.last_time, 0.0)
        projected = state.level + state.trend_per_s * horizon
        return Forecast(
            at=at_time_s,
            rate_rps=max(projected, 0.0),
            level=state.level,
            trend_per_s=state.trend_per_s,
        )

    def keys(self) -> list[Any]:
        """Keys that have at least one observed sample."""
        return sorted(self._state)


@dataclass
class ServableProfile:
    """A measured latency profile for one servable.

    Fits ``invocation_time(n) = intercept + slope * n`` over observed
    (batch size, invocation time) samples — exactly the Fig. 6 line.
    The samples come from served requests' records (``batch_size``,
    ``invocation_time``), e.g. a warm-up run at two batch caps.
    """

    servable_name: str
    samples: list[tuple[int, float]] = field(default_factory=list)

    def observe(self, batch_size: int, invocation_time_s: float) -> None:
        """Record one (batch size, invocation time) measurement."""
        if batch_size < 1 or invocation_time_s < 0:
            raise ValueError("invalid observation")
        self.samples.append((batch_size, invocation_time_s))

    def fit(self) -> tuple[float, float]:
        """Returns ``(intercept_s, slope_s_per_item)``.

        Needs samples at >= 2 distinct batch sizes.
        """
        if len({n for n, _ in self.samples}) < 2:
            raise ProfileError(
                f"profile for {self.servable_name!r} needs >= 2 distinct batch sizes"
            )
        xs = np.array([n for n, _ in self.samples], dtype=np.float64)
        ys = np.array([t for _, t in self.samples], dtype=np.float64)
        slope, intercept = np.polyfit(xs, ys, 1)
        return float(intercept), float(max(slope, 1e-9))

    def max_batch_for_latency(self, latency_budget_s: float) -> int:
        """Largest batch whose predicted invocation fits the budget.

        This is the serving runtime's ``max_batch_size`` under a
        per-batch latency objective; a budget at or below the fitted
        intercept still admits one item per batch.
        """
        if latency_budget_s <= 0:
            raise ValueError("latency_budget_s must be > 0")
        intercept, slope = self.fit()
        if latency_budget_s <= intercept:
            return 1
        # Epsilon guards against float error shaving an exact fit by one.
        return max(1, int((latency_budget_s - intercept) / slope + 1e-9))


@dataclass
class ScalingDecision:
    """One replica-count decision the Autoscaler took (or simulated)."""
    servable_name: str
    arrival_rate_rps: float
    recommended_replicas: int
    dispatch_bound_rps: float
    applied: bool


class Autoscaler:
    """Replica-count tuning from the shared capacity model.

    Two serving regimes, one scaler:

    * **streaming** (``max_batch_size == 1``, the Fig. 7 protocol): per
      task the Task Manager pays a serial dispatch cost ``d``; each
      replica is busy ``c`` seconds per task (shim + inference). Serving
      an arrival rate ``lambda`` needs ``ceil(lambda * c)`` replicas —
      but never more than ``ceil(c / d)``, beyond which the dispatch
      bound ``1/d`` caps throughput regardless of replicas (the Fig. 7
      plateau).
    * **coalesced** (``max_batch_size > 1``, the serving runtime's
      micro-batch path): batches shard across pods in ``ceil(B / R)``
      chunks, so sizing inverts the same
      :func:`per_copy_capacity_rps` model the fleet controller plans
      copies from (:func:`replicas_for_rate`) — the two layers can no
      longer disagree about what a replica is worth.
    """

    def __init__(
        self,
        executor: ParslServableExecutor,
        dispatch_cost_s: float = cal.PARSL_DISPATCH_S,
        min_replicas: int = 1,
        max_replicas: int = 64,
        max_batch_size: int = 1,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.executor = executor
        self.dispatch_cost_s = dispatch_cost_s
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.max_batch_size = max_batch_size
        self.decisions: list[ScalingDecision] = []

    def task_cost(self, servable_name: str) -> float:
        """Per-task replica-busy time ``c`` (shim + inference)."""
        try:
            servable = self.executor.get_servable(servable_name)
        except ExecutorError as exc:
            raise ProfileError(str(exc)) from exc
        return cal.SERVABLE_SHIM_S + servable.inference_cost_s

    def saturation_replicas(self, servable_name: str) -> int:
        """Replicas beyond which added capacity is wasted (Fig. 7 knee)."""
        return max(1, math.ceil(self.task_cost(servable_name) / self.dispatch_cost_s))

    def recommend(self, servable_name: str, arrival_rate_rps: float) -> int:
        """Replicas to serve ``arrival_rate_rps``, regime-appropriately.

        Streaming mode keeps the legacy Fig. 7 inversion bit-for-bit;
        coalesced mode (``max_batch_size > 1``) sizes from the shared
        :func:`per_copy_capacity_rps` model instead.
        """
        if arrival_rate_rps < 0:
            raise ValueError("arrival rate must be >= 0")
        if self.max_batch_size > 1:
            try:
                servable = self.executor.get_servable(servable_name)
            except ExecutorError as exc:
                raise ProfileError(str(exc)) from exc
            demand = replicas_for_rate(
                servable.inference_cost_s,
                self.max_batch_size,
                arrival_rate_rps,
                max_replicas=self.max_replicas,
            )
            return min(max(demand, self.min_replicas), self.max_replicas)
        demand = math.ceil(arrival_rate_rps * self.task_cost(servable_name))
        bounded = min(max(demand, self.min_replicas), self.max_replicas)
        return min(bounded, self.saturation_replicas(servable_name))

    def autoscale(
        self, servable_name: str, arrival_rate_rps: float, apply: bool = True
    ) -> ScalingDecision:
        """Recommend (and optionally apply) a replica count."""
        replicas = self.recommend(servable_name, arrival_rate_rps)
        if apply:
            self.executor.scale(servable_name, replicas)
        decision = ScalingDecision(
            servable_name=servable_name,
            arrival_rate_rps=arrival_rate_rps,
            recommended_replicas=replicas,
            dispatch_bound_rps=1.0 / self.dispatch_cost_s,
            applied=apply,
        )
        self.decisions.append(decision)
        return decision
