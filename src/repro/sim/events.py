"""A minimal discrete-event timer heap.

The serving runtime's kernel
(:meth:`repro.core.runtime.ServingRuntime.serve`) keeps one long-lived
:class:`Event` per wake-up source on an :class:`EventLoop`
(:meth:`~EventLoop.timer`), moves it with :meth:`~EventLoop.reschedule`
whenever the source's next due time changes, and drives time itself:
:meth:`~EventLoop.peek` names the next wake-up,
:meth:`~EventLoop.due_phases` hands back everything due at an instant.
The loop is one binary heap of plain ``(when, phase, sequence, event)``
tuples: timers surface in timestamp order, simultaneous ones in
``phase`` order, and ties beyond that in arming order (FIFO). It holds
no clock and runs no callbacks — the caller owns both.

**Invalidation is lazy**: cancelling or moving an event never searches
the heap. The event remembers the sequence number of its latest entry;
an entry whose number no longer matches (the event moved) or whose
event is no longer live (cancelled, or already fired) is dropped when
it surfaces at the top.
"""

from __future__ import annotations

import heapq
import itertools
import math


class Event:
    """One wake-up source's timer: scheduled, moved, fired or cancelled.

    ``live`` is true from scheduling until the event fires or is
    cancelled; ``when`` is the time of its latest scheduling.
    """

    __slots__ = ("loop", "phase", "name", "when", "sequence", "live")

    def __init__(self, loop: "EventLoop", phase: int = 0, name: str = "") -> None:
        self.loop = loop
        self.phase = phase
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
    """Discrete-event timer heap; the caller drives the clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    # -- scheduling ---------------------------------------------------------------
    def timer(self, phase: int = 0, name: str = "") -> Event:
        """A new, unscheduled event bound to this loop (arm it with
        :meth:`reschedule`)."""
        return Event(self, phase, name)

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

    def __len__(self) -> int:
        return self._live

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

    def due_phases(self, horizon: float) -> int:
        """Take *every* live event with ``when <= horizon`` off the heap
        and return the phases they belong to, as the bitwise OR of
        ``1 << phase`` (0 when nothing is due).

        This is how a phased loop collects one instant's work: what is
        due is popped in one sweep, and the caller then runs the phases
        named in the mask in its own fixed order.

        No clock moves: the caller decides what "now" is by the
        horizon it passes.
        """
        phases = 0
        heap = self._heap
        while heap:
            when, phase, sequence, event = heap[0]
            if event.live and event.sequence == sequence:
                if when > horizon:
                    break
                event.live = False
                self._live -= 1
                phases |= 1 << phase
            heapq.heappop(heap)  # fired now, or a stale entry
        return phases
