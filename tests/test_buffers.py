"""Tests for VC buffers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, FlowControlError
from repro.network.buffers import VCBuffer
from repro.network.packet import Packet


def flits(n=5):
    return Packet(0, 1, n, 0).make_flits()


class TestVCBuffer:
    def test_fifo_order(self):
        buffer = VCBuffer(8)
        fs = flits(5)
        for i, flit in enumerate(fs):
            buffer.enqueue(flit, now=i)
        assert [buffer.dequeue() for _ in range(5)] == fs

    def test_capacity_enforced(self):
        buffer = VCBuffer(2)
        fs = flits(3)
        buffer.enqueue(fs[0], 0)
        buffer.enqueue(fs[1], 0)
        assert len(buffer) == buffer.capacity
        with pytest.raises(FlowControlError):
            buffer.enqueue(fs[2], 0)

    def test_dequeue_empty_raises(self):
        with pytest.raises(FlowControlError):
            VCBuffer(2).dequeue()

    def test_head_peek(self):
        buffer = VCBuffer(4)
        assert buffer.head() is None
        fs = flits(2)
        buffer.enqueue(fs[0], 0)
        assert buffer.head() is fs[0]
        assert len(buffer) == 1  # peek does not consume

    def test_arrival_stamp(self):
        buffer = VCBuffer(4)
        flit = flits(1)[0]
        buffer.enqueue(flit, now=123)
        assert flit.buffer_arrival_cycle == 123

    def test_bad_capacity(self):
        with pytest.raises(ConfigError):
            VCBuffer(0)

    @given(ops=st.lists(st.booleans(), max_size=60))
    def test_occupancy_invariant(self, ops):
        """Random enqueue/dequeue keeps 0 <= len <= capacity."""
        buffer = VCBuffer(4)
        source = iter(flits(60))
        for enqueue in ops:
            if enqueue and len(buffer) < buffer.capacity:
                buffer.enqueue(next(source), 0)
            elif not enqueue and not buffer.is_empty:
                buffer.dequeue()
            assert 0 <= len(buffer) <= 4
