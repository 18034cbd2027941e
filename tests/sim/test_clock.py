"""Unit tests for the virtual clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import ClockError, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start=5.0).now() == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock(start=-1.0)

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(0.5) == 0.5
        assert clock.advance(0.25) == 0.75

    def test_advance_zero_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now() == 0.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_nan_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(float("nan"))

    def test_advance_to_forward(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_advance_to_same_time_allowed(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_advance_to_backwards_rejected(self):
        clock = VirtualClock()
        clock.advance_to(2.0)
        with pytest.raises(ClockError):
            clock.advance_to(1.0)

    def test_advances_counter(self):
        clock = VirtualClock()
        clock.advance(1.0)
        clock.advance_to(2.0)
        assert clock.advances == 2

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=50))
    def test_monotonicity_property(self, deltas):
        """The clock never goes backwards under any advance sequence."""
        clock = VirtualClock()
        previous = clock.now()
        for delta in deltas:
            current = clock.advance(delta)
            assert current >= previous
            previous = current

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=30))
    def test_sum_of_advances_property(self, deltas):
        clock = VirtualClock()
        for delta in deltas:
            clock.advance(delta)
        assert clock.now() == pytest.approx(sum(deltas), abs=1e-6)
