"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.events import EventLoop


@pytest.fixture
def loop():
    return EventLoop(VirtualClock())


class TestScheduling:
    def test_schedule_and_run(self, loop):
        fired = []
        loop.schedule(1.0, lambda: fired.append("a"))
        loop.run_next()
        assert fired == ["a"]
        assert loop.clock.now() == 1.0

    def test_negative_delay_rejected(self, loop):
        with pytest.raises(ValueError):
            loop.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self, loop):
        loop.clock.advance(1.0)
        fired = []
        loop.schedule_at(2.5, lambda: fired.append(1))
        loop.run_next()
        assert loop.clock.now() == 2.5

    def test_schedule_at_past_rejected(self, loop):
        loop.clock.advance(5.0)
        with pytest.raises(ValueError):
            loop.schedule_at(1.0, lambda: None)

    def test_events_fire_in_time_order(self, loop):
        fired = []
        loop.schedule(3.0, lambda: fired.append("late"))
        loop.schedule(1.0, lambda: fired.append("early"))
        loop.schedule(2.0, lambda: fired.append("middle"))
        loop.run_all()
        assert fired == ["early", "middle", "late"]

    def test_ties_broken_fifo(self, loop):
        fired = []
        for label in ("first", "second", "third"):
            loop.schedule(1.0, lambda l=label: fired.append(l))
        loop.run_all()
        assert fired == ["first", "second", "third"]


class TestCancellation:
    def test_cancelled_event_skipped(self, loop):
        fired = []
        ev = loop.schedule(1.0, lambda: fired.append("cancelled"))
        loop.schedule(2.0, lambda: fired.append("kept"))
        ev.cancel()
        loop.run_all()
        assert fired == ["kept"]

    def test_len_excludes_cancelled(self, loop):
        ev = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        ev.cancel()
        assert len(loop) == 1


class TestRunUntil:
    def test_run_until_deadline(self, loop):
        fired = []
        loop.schedule(1.0, lambda: fired.append(1))
        loop.schedule(5.0, lambda: fired.append(5))
        count = loop.run_until(3.0)
        assert count == 1
        assert fired == [1]
        assert loop.clock.now() == 3.0
        assert len(loop) == 1

    def test_run_until_advances_clock_even_when_empty(self, loop):
        loop.run_until(7.0)
        assert loop.clock.now() == 7.0

    def test_run_all_bounded(self, loop):
        for i in range(5):
            loop.schedule(float(i + 1), lambda: None)
        assert loop.run_all(max_events=3) == 3
        assert len(loop) == 2

    def test_fired_counter(self, loop):
        loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        loop.run_all()
        assert loop.fired == 2

    def test_events_may_schedule_events(self, loop):
        fired = []

        def chain():
            fired.append("first")
            loop.schedule(1.0, lambda: fired.append("second"))

        loop.schedule(1.0, chain)
        loop.run_all()
        assert fired == ["first", "second"]
        assert loop.clock.now() == 2.0


class TestTimers:
    """The caller-driven side: long-lived timers that are moved, not
    re-created, and a heap that is read without moving the clock."""

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
        loop.clock.advance(10.0)
        timer = loop.timer()
        loop.reschedule(timer, 1.0)
        assert loop.pop_due(loop.clock.now()) is timer
        assert loop.clock.now() == 10.0  # reading the heap never moves time

    def test_cancelled_timer_is_skipped_and_reusable(self, loop):
        first, second = loop.timer(), loop.timer()
        loop.reschedule(first, 1.0)
        loop.reschedule(second, 2.0)
        first.cancel()
        first.cancel()  # idempotent
        assert len(loop) == 1 and loop.peek() is second
        loop.reschedule(first, 1.5)
        assert loop.peek() is first

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
