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
        assert loop.peek() is None and loop.pop_due(10.0) is None
        loop.reschedule(timer, 3.0)
        assert timer.live and timer.when == 3.0 and loop.peek() is timer

    def test_moving_a_timer_leaves_one_live_entry(self, loop):
        timer = loop.timer()
        for when in (5.0, 2.0, 7.0):  # earlier, then later
            loop.reschedule(timer, when)
        assert len(loop) == 1
        assert loop.pop_due(6.0) is None  # the 5.0 and 2.0 entries are stale
        assert loop.pop_due(7.0) is timer
        assert not timer.live and len(loop) == 0

    def test_rearming_at_the_same_time_pushes_nothing(self, loop):
        timer = loop.timer()
        loop.reschedule(timer, 4.0)
        loop.reschedule(timer, 4.0)
        assert len(loop._heap) == 1

    def test_a_fired_timer_can_be_rearmed_at_the_same_time(self, loop):
        timer = loop.timer()
        loop.reschedule(timer, 4.0)
        assert loop.pop_due(4.0) is timer
        loop.reschedule(timer, 4.0)
        assert loop.pop_due(4.0) is timer

    def test_a_past_time_is_simply_due(self, loop):
        # The loop holds no clock: "past" is anything at or below the
        # horizon the caller reads the heap at.
        timer = loop.timer()
        loop.reschedule(timer, 1.0)
        assert loop.pop_due(10.0) is timer

    def test_cancelled_timer_is_skipped_and_reusable(self, loop):
        first, second = loop.timer(), loop.timer()
        loop.reschedule(first, 1.0)
        loop.reschedule(second, 2.0)
        first.cancel()
        first.cancel()  # idempotent
        assert len(loop) == 1 and loop.peek() is second
        loop.reschedule(first, 1.5)
        assert loop.peek() is first

    def test_timers_armed_out_of_order_surface_in_time_order(self, loop):
        timers = {when: loop.timer(name=str(when)) for when in (3.0, 1.0, 2.0)}
        for when, timer in timers.items():
            loop.reschedule(timer, when)
        surfaced = [loop.pop_due(5.0) for _ in timers]
        assert [t.when for t in surfaced] == [1.0, 2.0, 3.0]
        assert loop.pop_due(5.0) is None

    def test_same_time_and_phase_surface_in_arming_order(self, loop):
        timers = [loop.timer(phase=2, name=label) for label in "abc"]
        for timer in timers:
            loop.reschedule(timer, 1.0)
        assert [loop.pop_due(1.0).name for _ in timers] == ["a", "b", "c"]

    def test_len_excludes_cancelled_timers(self, loop):
        first, second = loop.timer(), loop.timer()
        loop.reschedule(first, 1.0)
        loop.reschedule(second, 2.0)
        first.cancel()
        assert len(loop) == 1
        assert loop.pop_due(5.0) is second and len(loop) == 0

    def test_simultaneous_events_surface_in_phase_order(self, loop):
        late, early = loop.timer(phase=5), loop.timer(phase=1)
        loop.reschedule(late, 1.0)
        loop.reschedule(early, 1.0)
        assert loop.pop_due(1.0) is early
        assert loop.pop_due(1.0) is late

    def test_due_phases_collects_one_instant(self, loop):
        timers = {phase: loop.timer(phase=phase) for phase in (0, 3, 4)}
        loop.reschedule(timers[0], 1.0)
        loop.reschedule(timers[3], 1.0 + 5e-13)  # inside the caller's epsilon
        loop.reschedule(timers[4], 2.0)
        assert loop.due_phases(1.0 + 1e-12) == (1 << 0) | (1 << 3)
        assert loop.due_phases(1.0 + 1e-12) == 0
        assert loop.peek() is timers[4] and len(loop) == 1
