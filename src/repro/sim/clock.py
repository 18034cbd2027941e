"""Virtual clock primitives.

The entire reproduction runs on virtual time: components call
:meth:`VirtualClock.advance` to charge latency costs and
:meth:`VirtualClock.now` to timestamp events.

Virtual time is monotonic; advancing by a negative amount is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ClockError(RuntimeError):
    """Raised on invalid clock operations (e.g. negative advance)."""


@dataclass
class VirtualClock:
    """A monotonic virtual clock measured in (virtual) seconds.

    Parameters
    ----------
    start:
        Initial timestamp. Defaults to ``0.0``.

    Examples
    --------
    >>> clock = VirtualClock()
    >>> clock.advance(0.5)
    0.5
    >>> clock.now()
    0.5
    """

    start: float = 0.0
    _now: float = field(init=False, default=0.0)
    _advances: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ClockError(f"clock cannot start at negative time {self.start!r}")
        self._now = float(self.start)

    def now(self) -> float:
        """Return the current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time.

        Raises
        ------
        ClockError
            If ``seconds`` is negative or not finite.
        """
        s = float(seconds)
        if not s >= 0.0:  # catches negatives and NaN
            raise ClockError(f"cannot advance clock by {seconds!r}")
        self._now += s
        self._advances += 1
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to an absolute ``timestamp``.

        Moving backwards is an error; advancing to the current time is allowed.
        """
        t = float(timestamp)
        if t < self._now:
            raise ClockError(
                f"cannot move clock backwards: now={self._now!r}, target={t!r}"
            )
        self._now = t
        self._advances += 1
        return self._now

    @property
    def advances(self) -> int:
        """Number of ``advance``/``advance_to`` calls made (diagnostics)."""
        return self._advances

    def concurrent(self) -> "ConcurrentRegion":
        """Open a region whose branches charge ``max``, not ``sum``.

        Code that models N activities happening *in parallel* (e.g. a
        kubelet starting N pods) still runs serially here, and each
        activity charges this clock. Wrapping each activity in a
        :meth:`ConcurrentRegion.branch` makes the region's total
        virtual-time charge the longest single branch::

            with clock.concurrent() as region:
                for _ in range(n):
                    with region.branch():
                        start_pod()   # charges the clock as usual

        Within a branch, time flows normally from the region's start, so
        timestamps taken inside (``busy_until``, ``started_at``) land in
        the branch's own window. To outside observers the clock never
        moves backwards: it reads the region's start until the region
        closes at ``start + max(branch durations)``.
        """
        return ConcurrentRegion(self)


class ConcurrentRegion:
    """Context manager converting serial charges into parallel ones.

    Created by :meth:`VirtualClock.concurrent`. Each :meth:`branch`
    rewinds the clock (privately — the public API stays monotonic) to
    the region's start before its body runs and records where the body
    ended; closing the region advances the clock to the latest branch
    end. A region with no branches charges nothing.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self._clock = clock
        self._base: float | None = None
        self._max_end: float | None = None
        self._in_branch = False

    def __enter__(self) -> "ConcurrentRegion":
        self._base = self._clock.now()
        self._max_end = self._base
        return self

    def __exit__(self, *exc) -> None:
        # On exception the failed branch's partial charge is already
        # folded into _max_end by _Branch.__exit__; close monotonically.
        end = max(self._max_end if self._max_end is not None else 0.0, self._clock.now())
        self._clock._now = end
        self._clock._advances += 1

    def branch(self) -> "_Branch":
        if self._base is None:
            raise ClockError("branch() outside an open concurrent region")
        if self._in_branch:
            raise ClockError("concurrent branches cannot nest")
        return _Branch(self)


class _Branch:
    def __init__(self, region: ConcurrentRegion) -> None:
        self._region = region

    def __enter__(self) -> "_Branch":
        region = self._region
        region._in_branch = True
        # Rewind to the region's start: this branch runs concurrently
        # with its siblings, not after them.
        region._clock._now = region._base
        return self

    def __exit__(self, *exc) -> None:
        region = self._region
        region._in_branch = False
        region._max_end = max(region._max_end, region._clock.now())
