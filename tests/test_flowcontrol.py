"""Tests for credit state and occupancy tracking."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, FlowControlError
from repro.network.flowcontrol import CreditState, OccupancyTracker


class TestCreditState:
    def test_initial_credits(self):
        state = CreditState(vcs=2, capacity_per_vc=64)
        assert state.credits == [64, 64]
        assert state.vc_free == [True, True]

    def test_consume_restore(self):
        state = CreditState(2, 4)
        state.credits[0] -= 1  # the router spends credits inline
        state.restore(0)
        assert state.credits[0] == 4

    def test_overflow(self):
        state = CreditState(1, 2)
        with pytest.raises(FlowControlError):
            state.restore(0)

    def test_vc_allocation_cycle(self):
        state = CreditState(2, 4)
        state.allocate_vc(1)
        assert not state.vc_free[1]
        with pytest.raises(FlowControlError):
            state.allocate_vc(1)
        state.vc_free[1] = True  # released inline at tail launch
        state.allocate_vc(1)
        assert not state.vc_free[1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            CreditState(0, 4)
        with pytest.raises(ConfigError):
            CreditState(2, 0)

    @given(ops=st.lists(st.booleans(), max_size=100))
    def test_credit_conservation(self, ops):
        """consume/restore sequences keep credits within [0, capacity]."""
        state = CreditState(1, 8)
        outstanding = 0
        for consume in ops:
            if consume and state.credits[0] > 0:
                state.credits[0] -= 1
                outstanding += 1
            elif not consume and outstanding > 0:
                state.restore(0)
                outstanding -= 1
            assert state.credits[0] + outstanding == 8


class TestOccupancyTracker:
    def test_integral_accumulates(self):
        tracker = OccupancyTracker()
        tracker.on_enqueue(0)
        # one slot occupied for 10 cycles
        assert tracker.cumulative_integral(10) == pytest.approx(10.0)

    def test_integral_with_changes(self):
        tracker = OccupancyTracker()
        tracker.on_enqueue(0)   # occ 1 from 0
        tracker.on_enqueue(5)   # occ 2 from 5
        tracker.on_dequeue(10)  # occ 1 from 10
        # 1*5 + 2*5 + 1*10 = 25 by cycle 20
        assert tracker.cumulative_integral(20) == pytest.approx(25.0)

    def test_cumulative_for_multiple_consumers(self):
        tracker = OccupancyTracker()
        tracker.on_enqueue(0)
        first = tracker.cumulative_integral(10)
        second = tracker.cumulative_integral(20)
        assert second - first == pytest.approx(10.0)

    def test_underflow(self):
        tracker = OccupancyTracker()
        with pytest.raises(FlowControlError):
            tracker.on_dequeue(0)

    def test_time_backwards(self):
        tracker = OccupancyTracker()
        tracker.on_enqueue(10)
        with pytest.raises(FlowControlError):
            tracker.on_enqueue(5)

    @given(
        events=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=1, max_value=20)),
            max_size=50,
        )
    )
    def test_integral_matches_reference(self, events):
        """Event-wise integral equals a per-cycle reference sum."""
        tracker = OccupancyTracker()
        now = 0
        occupied = 0
        reference = 0.0
        for enqueue, gap in events:
            reference += occupied * gap
            now += gap
            if enqueue:
                tracker.on_enqueue(now)
                occupied += 1
            elif occupied > 0:
                tracker.on_dequeue(now)
                occupied -= 1
        assert tracker.cumulative_integral(now) == pytest.approx(reference)
