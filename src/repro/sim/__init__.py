"""Discrete-event simulation substrate.

Every latency-bearing component in the reproduction (network links, message
queues, container runtimes, serving backends) charges its costs to a shared
:class:`~repro.sim.clock.VirtualClock` instead of sleeping on the wall clock.
This makes the paper's experiments deterministic, hardware-independent, and
fast, while preserving the latency *structure* the evaluation measures
(request > invocation > inference, overhead gaps of ~10-20 ms, etc.).

Key pieces
----------
``VirtualClock``
    Monotonic virtual time in seconds, with scoped ``Stopwatch`` helpers.
``EventLoop``
    The timer heap the serving runtime's kernel keeps its wake-up
    sources on (one movable ``Event`` per source).
``NetworkLink`` / ``LatencyModel``
    Round-trip and bandwidth cost models for each hop in the DLHub
    architecture.
``calibration``
    All constants calibrated against the numbers reported in the paper,
    in one documented place.
"""

from repro.sim.clock import VirtualClock, Stopwatch
from repro.sim.events import Event, EventLoop
from repro.sim.latency import NetworkLink, LatencyModel, GaussianJitter, NoJitter
from repro.sim.rng import SeededRNG
from repro.sim import calibration

__all__ = [
    "VirtualClock",
    "Stopwatch",
    "Event",
    "EventLoop",
    "NetworkLink",
    "LatencyModel",
    "GaussianJitter",
    "NoJitter",
    "SeededRNG",
    "calibration",
]
