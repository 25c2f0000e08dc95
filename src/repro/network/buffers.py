"""Input-buffer primitives.

Each router input port holds a fixed pool of flit slots divided evenly
among its virtual channels (the paper: 128 flit buffers per input port,
two VCs, so 64 slots per VC). :class:`VCBuffer` is the per-VC FIFO with
capacity enforcement; higher-level VC state lives in
:mod:`repro.network.vc`.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError, FlowControlError
from .packet import Flit


class VCBuffer:
    """Bounded FIFO of flits for one virtual channel.

    The underlying deque is exposed as the read-only-by-convention
    attribute :attr:`flits` so the router's hot loop can inspect emptiness
    and the head flit without method-call overhead; all *mutation* must go
    through :meth:`enqueue`/:meth:`dequeue`, which enforce capacity and
    arrival-time stamping.
    """

    __slots__ = ("capacity", "flits")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("VC buffer capacity must be >= 1")
        self.capacity = capacity
        self.flits: deque[Flit] = deque()

    def __len__(self) -> int:
        return len(self.flits)

    @property
    def occupancy(self) -> int:
        """Flits currently buffered (the sanitizer-facing spelling)."""
        return len(self.flits)

    @property
    def is_empty(self) -> bool:
        return not self.flits

    def head(self) -> Flit | None:
        """The flit at the front, or None when empty."""
        return self.flits[0] if self.flits else None

    def enqueue(self, flit: Flit, now: int) -> None:
        """Append *flit*, stamping its buffer arrival time.

        Overflow is a flow-control bug (the sender must have had a credit),
        so it raises rather than dropping.
        """
        if len(self.flits) >= self.capacity:
            raise FlowControlError(
                f"buffer overflow: enqueue into full VC buffer at cycle {now}"
            )
        flit.buffer_arrival_cycle = now
        self.flits.append(flit)

    def dequeue(self) -> Flit:
        """Remove and return the front flit."""
        if not self.flits:
            raise FlowControlError("dequeue from empty VC buffer")
        return self.flits.popleft()

    def __iter__(self):
        return iter(self.flits)
