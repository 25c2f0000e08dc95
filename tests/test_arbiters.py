"""Tests for round-robin arbitration."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.network.arbiters import RoundRobinArbiter


class TestGrant:
    def test_single_requester(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.grant([False, True, False, False]) == 1

    def test_no_requests(self):
        arbiter = RoundRobinArbiter(4)
        assert arbiter.grant([False] * 4) is None

    def test_rotation(self):
        arbiter = RoundRobinArbiter(3)
        all_on = [True, True, True]
        assert arbiter.grant(all_on) == 0
        assert arbiter.grant(all_on) == 1
        assert arbiter.grant(all_on) == 2
        assert arbiter.grant(all_on) == 0

    def test_winner_becomes_lowest_priority(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.grant([True, False, False, True])  # grants 0
        assert arbiter.grant([True, False, False, True]) == 3

    def test_wrong_width(self):
        arbiter = RoundRobinArbiter(4)
        with pytest.raises(ConfigError):
            arbiter.grant([True, False])

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            RoundRobinArbiter(0)


class TestGrantFrom:
    def test_sparse(self):
        arbiter = RoundRobinArbiter(8)
        assert arbiter.grant_from({5, 6}) == 5
        assert arbiter.grant_from({5, 6}) == 6

    def test_empty(self):
        assert RoundRobinArbiter(4).grant_from(set()) is None


class TestAdvancePast:
    def test_sets_priority(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.advance_past(2)
        assert arbiter.grant([True] * 4) == 3

    def test_wraps(self):
        arbiter = RoundRobinArbiter(4)
        arbiter.advance_past(3)
        assert arbiter.grant([True] * 4) == 0

    def test_range_check(self):
        with pytest.raises(ConfigError):
            RoundRobinArbiter(4).advance_past(4)


@given(
    size=st.integers(min_value=1, max_value=8),
    rounds=st.integers(min_value=1, max_value=64),
)
def test_fairness_under_persistent_requests(size, rounds):
    """With everyone requesting, grants are perfectly balanced."""
    arbiter = RoundRobinArbiter(size)
    counts = [0] * size
    for _ in range(rounds * size):
        winner = arbiter.grant([True] * size)
        counts[winner] += 1
    assert max(counts) - min(counts) == 0


@given(
    requests=st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1), min_size=1, max_size=50
    )
)
def test_granted_id_always_requested(requests):
    arbiter = RoundRobinArbiter(6)
    for request_set in requests:
        winner = arbiter.grant_from(request_set)
        assert winner in request_set
