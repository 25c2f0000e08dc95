"""Network channel: a DVS channel bound into the topology.

Glues one :class:`~repro.core.dvs_link.DVSChannel` (eight serial links plus
regulator and DVS state machine) to a directed topology edge, and computes
flit arrival times: a flit launched at router cycle ``t`` lands in the
downstream input buffer at

    ceil(t + pipeline_latency + serialization_cycles)

where ``serialization_cycles`` is the channel occupancy at the current
frequency level (1 router cycle at the top level, 8 at the bottom for the
paper's parameters) and ``pipeline_latency`` covers the upstream router's
remaining pipeline stages plus wire flight.
"""

from __future__ import annotations

from ..core.dvs_link import DVSChannel
from ..errors import ConfigError
from .topology import ChannelSpec


class NetworkChannel:
    """One directed inter-router channel with DVS state."""

    __slots__ = ("spec", "dvs", "pipeline_latency")

    def __init__(self, spec: ChannelSpec, dvs: DVSChannel, pipeline_latency: int):
        if pipeline_latency < 0:
            raise ConfigError("pipeline latency must be non-negative")
        self.spec = spec
        self.dvs = dvs
        self.pipeline_latency = pipeline_latency

    def can_accept(self, now: int) -> bool:
        """Whether a flit may be launched onto the wire this cycle."""
        return self.dvs.can_accept_flit(now)

    @property
    def serialization_cycles(self) -> float:
        return self.dvs.serialization_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NetworkChannel {self.spec.src_node}:{self.spec.src_port} -> "
            f"{self.spec.dst_node}:{self.spec.dst_port} level={self.dvs.level}>"
        )
