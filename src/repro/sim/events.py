"""A minimal discrete-event timer heap.

Components that need future wake-ups schedule :class:`Event` objects on
an :class:`EventLoop` that shares the experiment's
:class:`VirtualClock`. The loop is one binary heap of plain
``(when, phase, sequence, event)`` tuples: events fire in timestamp
order, simultaneous events in ``phase`` order, and ties beyond that in
scheduling order (FIFO).

It serves two kinds of caller:

* **Callback users** :meth:`~EventLoop.schedule` a function and let
  :meth:`~EventLoop.run_next` / :meth:`~EventLoop.run_until` /
  :meth:`~EventLoop.run_all` advance the clock to each event and call
  it.
* **The serving runtime's kernel**
  (:meth:`repro.core.runtime.ServingRuntime.serve`) keeps one
  long-lived :meth:`~EventLoop.timer` per wake-up source, moves it with
  :meth:`~EventLoop.reschedule` whenever the source's next due time
  changes, and drives time itself: :meth:`~EventLoop.peek` names the
  next wake-up, :meth:`~EventLoop.due_phases` hands back everything due
  at an instant without touching the clock.

**Invalidation is lazy** for both: cancelling or moving an event never
searches the heap. The event remembers the sequence number of its
latest entry; an entry whose number no longer matches (the event moved)
or whose event is no longer live (cancelled, or already fired) is
dropped when it surfaces at the top.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from repro.sim.clock import VirtualClock


class Event:
    """One wake-up source's timer: scheduled, moved, fired or cancelled.

    ``live`` is true from scheduling until the event fires or is
    cancelled; ``when`` is the time of its latest scheduling.
    """

    __slots__ = ("loop", "phase", "callback", "name", "when", "sequence", "live")

    def __init__(
        self,
        loop: "EventLoop",
        phase: int = 0,
        callback: Callable[[], Any] | None = None,
        name: str = "",
    ) -> None:
        self.loop = loop
        self.phase = phase
        self.callback = callback
        self.name = name
        self.when = math.inf
        self.sequence = -1
        self.live = False

    def cancel(self) -> None:
        """Disarm the event; its heap entry is skipped when it surfaces."""
        if self.live:
            self.live = False
            self.loop._live -= 1


class EventLoop:
    """Discrete-event timer heap over a shared :class:`VirtualClock`."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._fired = 0

    # -- scheduling ---------------------------------------------------------------
    def timer(
        self, phase: int = 0, callback: Callable[[], Any] | None = None, name: str = ""
    ) -> Event:
        """A new, unscheduled event bound to this loop (arm it with
        :meth:`reschedule`)."""
        return Event(self, phase, callback, name)

    def reschedule(self, event: Event, when: float) -> None:
        """Arm ``event`` at absolute time ``when``, replacing any earlier
        scheduling of it.

        ``when`` may lie in the past — the event is then simply due at
        once. Re-arming a live event at the time it already holds is
        free; any other move pushes a fresh entry and leaves the old one
        to be dropped lazily.
        """
        if event.live:
            if event.when == when:
                return
        else:
            event.live = True
            self._live += 1
        event.when = when
        event.sequence = sequence = next(self._counter)
        heapq.heappush(self._heap, (when, event.phase, sequence, event))

    def schedule(self, delay: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` virtual seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        event = self.timer(callback=callback, name=name)
        self.reschedule(event, self.clock.now() + delay)
        return event

    def schedule_at(self, when: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        if when < self.clock.now():
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now()}, when={when}"
            )
        event = self.timer(callback=callback, name=name)
        self.reschedule(event, when)
        return event

    def __len__(self) -> int:
        return self._live

    @property
    def fired(self) -> int:
        """Total events executed by the ``run_*`` methods."""
        return self._fired

    # -- reading the heap ---------------------------------------------------------
    def peek(self) -> Event | None:
        """The earliest live event (``None`` when there is none), after
        dropping whatever stale entries sat above it."""
        heap = self._heap
        while heap:
            _, _, sequence, event = heap[0]
            if event.live and event.sequence == sequence:
                return event
            heapq.heappop(heap)
        return None

    def pop_due(self, horizon: float) -> Event | None:
        """Take the earliest live event with ``when <= horizon`` off the
        heap and return it (``None`` when nothing is due).

        The clock does not move and no callback runs: a caller that
        drives time itself owns both.
        """
        heap = self._heap
        while heap:
            when, _, sequence, event = heap[0]
            if not event.live or event.sequence != sequence:
                heapq.heappop(heap)
                continue
            if when > horizon:
                return None
            heapq.heappop(heap)
            event.live = False
            self._live -= 1
            return event
        return None

    def due_phases(self, horizon: float) -> int:
        """Take *every* live event with ``when <= horizon`` off the heap
        and return the phases they belong to, as the bitwise OR of
        ``1 << phase`` (0 when nothing is due).

        This is how a phased loop collects one instant's work: what is
        due is popped in one sweep, and the caller then runs the phases
        named in the mask in its own fixed order.
        """
        phases = 0
        event = self.pop_due(horizon)
        while event is not None:
            phases |= 1 << event.phase
            event = self.pop_due(horizon)
        return phases

    # -- callback-driven running --------------------------------------------------
    def _fire(self, event: Event) -> None:
        self.clock.advance_to(event.when)
        event.callback()
        self._fired += 1

    def run_next(self) -> Event | None:
        """Pop and run the next pending event, advancing the clock to it.

        Returns the event that ran, or ``None`` if the loop is empty.
        """
        event = self.pop_due(math.inf)
        if event is not None:
            self._fire(event)
        return event

    def run_until(self, deadline: float) -> int:
        """Run all events with ``when <= deadline``; advance clock to deadline.

        Returns the number of events executed.
        """
        count = 0
        while (event := self.pop_due(deadline)) is not None:
            self._fire(event)
            count += 1
        if self.clock.now() < deadline:
            self.clock.advance_to(deadline)
        return count

    def run_all(self, max_events: int | None = None) -> int:
        """Drain the loop (optionally bounded); returns events executed."""
        count = 0
        while max_events is None or count < max_events:
            if self.run_next() is None:
                break
            count += 1
        return count
