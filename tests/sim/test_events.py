"""Unit tests for the discrete-event timer heap."""

import pytest

from repro.sim.events import EventLoop


@pytest.fixture
def loop():
    return EventLoop()


class TestTimers:
    """Long-lived timers that are moved, not re-created, on a heap the
    caller reads at horizons of its own choosing."""

    def test_timer_is_unscheduled_until_armed(self, loop):
        timer = loop.timer(phase=2)
        assert not timer.live and len(loop) == 0
        assert loop.peek() is None and loop.due_phases(10.0) == 0
        loop.reschedule(timer, 3.0)
        assert timer.live and timer.when == 3.0 and loop.peek() is timer

    def test_moving_a_timer_leaves_one_live_entry(self, loop):
        timer = loop.timer()
        for when in (5.0, 2.0, 7.0):  # earlier, then later
            loop.reschedule(timer, when)
        assert len(loop) == 1 and len(loop._heap) == 3
        assert loop.due_phases(6.0) == 0  # the 5.0 and 2.0 entries are stale
        assert len(loop._heap) == 1 and loop.peek() is timer
        assert loop.due_phases(7.0) == 1 << timer.phase
        assert not timer.live and len(loop) == 0 and not loop._heap

    def test_rearming_at_the_same_time_pushes_nothing(self, loop):
        timer = loop.timer()
        loop.reschedule(timer, 4.0)
        loop.reschedule(timer, 4.0)
        assert len(loop._heap) == 1

    def test_a_fired_timer_can_be_rearmed_at_the_same_time(self, loop):
        timer = loop.timer()
        loop.reschedule(timer, 4.0)
        assert loop.due_phases(4.0) == 1 << timer.phase and not timer.live
        loop.reschedule(timer, 4.0)
        assert timer.live and loop.peek() is timer
        assert loop.due_phases(4.0) == 1 << timer.phase and not timer.live

    def test_a_past_time_is_simply_due(self, loop):
        # The loop holds no clock: "past" is anything at or below the
        # horizon the caller reads the heap at.
        timer = loop.timer()
        loop.reschedule(timer, 1.0)
        assert loop.due_phases(10.0) == 1 << timer.phase and not timer.live

    def test_cancelled_timer_is_skipped_and_reusable(self, loop):
        first, second = loop.timer(), loop.timer()
        loop.reschedule(first, 1.0)
        loop.reschedule(second, 2.0)
        first.cancel()
        first.cancel()  # idempotent
        assert len(loop) == 1 and loop.peek() is second
        loop.reschedule(first, 1.5)
        assert loop.peek() is first
        assert loop.due_phases(1.5) == 1 << first.phase and loop.peek() is second

    def test_timers_armed_out_of_order_surface_in_time_order(self, loop):
        timers = {when: loop.timer(phase=int(when)) for when in (3.0, 1.0, 2.0)}
        for when, timer in timers.items():
            loop.reschedule(timer, when)
        assert loop.peek() is timers[1.0]
        surfaced = [loop.due_phases(when) for when in (1.0, 2.0, 3.0)]
        assert surfaced == [1 << 1, 1 << 2, 1 << 3]
        assert loop.due_phases(5.0) == 0 and loop.peek() is None

    def test_same_time_and_phase_surface_in_arming_order(self, loop):
        timers = [loop.timer(phase=2, name=label) for label in "abc"]
        for timer in timers:
            loop.reschedule(timer, 1.0)
        surfaced = []
        while loop.peek() is not None:
            surfaced.append(loop.peek().name)
            loop.peek().cancel()
        assert surfaced == ["a", "b", "c"]

    def test_len_excludes_cancelled_timers(self, loop):
        first, second = loop.timer(), loop.timer()
        loop.reschedule(first, 1.0)
        loop.reschedule(second, 2.0)
        first.cancel()
        assert len(loop) == 1
        assert loop.due_phases(5.0) == 1 << second.phase and len(loop) == 0

    def test_simultaneous_events_surface_in_phase_order(self, loop):
        late, early = loop.timer(phase=5), loop.timer(phase=1)
        loop.reschedule(late, 1.0)
        loop.reschedule(early, 1.0)
        assert loop.peek() is early
        early.cancel()
        assert loop.peek() is late
        loop.reschedule(early, 1.0)
        assert loop.due_phases(1.0) == (1 << 1) | (1 << 5) and len(loop) == 0

    def test_due_phases_collects_one_instant(self, loop):
        timers = {phase: loop.timer(phase=phase) for phase in (0, 3, 4)}
        loop.reschedule(timers[0], 1.0)
        loop.reschedule(timers[3], 1.0 + 5e-13)  # inside the caller's epsilon
        loop.reschedule(timers[4], 2.0)
        assert loop.due_phases(1.0 + 1e-12) == (1 << 0) | (1 << 3)
        assert loop.due_phases(1.0 + 1e-12) == 0
        assert loop.peek() is timers[4] and len(loop) == 1
