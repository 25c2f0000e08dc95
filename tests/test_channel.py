"""Tests for the topology-bound network channel.

Arrival timing is observed where the kernel computes it: a router
launching one flit onto the channel schedules the downstream arrival.
"""

import pytest

from repro.core.dvs_link import DVSChannel, TransitionTiming
from repro.core.levels import PAPER_TABLE
from repro.core.power_model import PAPER_LINK_POWER
from repro.errors import ConfigError
from repro.network.channel import NetworkChannel
from repro.network.packet import Packet
from repro.network.router import EVENT_ARRIVAL, Router
from repro.network.routing import DimensionOrderRouting
from repro.network.topology import ChannelSpec, Topology


def make_network_channel(initial_level=9, pipeline_latency=12):
    dvs = DVSChannel(
        PAPER_TABLE,
        PAPER_LINK_POWER,
        timing=TransitionTiming(0.5e-6, 5),
        initial_level=initial_level,
    )
    spec = ChannelSpec(0, src_node=0, src_port=0, dst_node=1, dst_port=1, )
    return NetworkChannel(spec, dvs, pipeline_latency)


def launch(channel, now):
    """Send one flit from node 0 onto *channel* at cycle *now*; return the
    downstream arrival cycle the router schedules."""
    topology = Topology(2, 1)
    assert topology.plus_port(0) == channel.spec.src_port
    events = []
    router = Router(
        0,
        topology,
        DimensionOrderRouting(topology, 2),
        vcs_per_port=2,
        buffers_per_vc=8,
        credit_delay=2,
        schedule=lambda cycle, event: events.append((cycle, event)),
        packet_sink=lambda packet, when: None,
    )
    router.attach_channel(channel.spec.src_port, channel, 8)
    (flit,) = Packet(0, 1, 1, now).make_flits()
    router.in_vcs[topology.local_port][0].buffer.enqueue(flit, now)
    router.total_buffered += 1
    router.resync_occupancy()
    router.step(now)
    (arrival,) = [cycle for cycle, event in events if event[0] == EVENT_ARRIVAL]
    return arrival


class TestArrivalTiming:
    def test_max_speed_arrival(self):
        channel = make_network_channel(initial_level=9, pipeline_latency=12)
        # serialization 1 cycle + pipeline 12: launch at 100 -> arrive 113.
        assert launch(channel, 100) == 113

    def test_min_speed_arrival(self):
        channel = make_network_channel(initial_level=0, pipeline_latency=12)
        # serialization 8 cycles at 125 MHz.
        assert launch(channel, 100) == 120

    def test_fractional_serialization_ceils(self):
        channel = make_network_channel(initial_level=8, pipeline_latency=0)
        ser = channel.serialization_cycles
        assert launch(channel, 0) == -(-int(ser * 1000) // 1000)  # ceil(ser)

    def test_back_to_back_uses_staging(self):
        channel = make_network_channel(initial_level=0, pipeline_latency=0)
        first = launch(channel, 0)
        assert not channel.can_accept(1)
        assert channel.can_accept(int(first) - 1 + 1) or channel.can_accept(int(first))

    def test_negative_pipeline_rejected(self):
        with pytest.raises(ConfigError):
            make_network_channel(pipeline_latency=-1)

    def test_repr_mentions_endpoints(self):
        assert "0:0 -> 1:1" in repr(make_network_channel())
