"""Arbiters used by the router's allocation stages.

The paper's router performs separable allocation with simple rotating
priority; :class:`RoundRobinArbiter` reproduces that: the requester just
granted becomes the lowest-priority requester for the next arbitration,
which is starvation-free for persistent requesters.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ConfigError


class RoundRobinArbiter:
    """Rotating-priority arbiter over a fixed id space ``0..size-1``."""

    __slots__ = ("size", "_next")

    def __init__(self, size: int):
        if size < 1:
            raise ConfigError("arbiter needs at least one requester")
        self.size = size
        self._next = 0

    def grant(self, requests: Sequence[bool]) -> int | None:
        """Grant among *requests* (indexed by id); None if no request.

        The winner becomes lowest priority next time.
        """
        if len(requests) != self.size:
            raise ConfigError(
                f"expected {self.size} request lines, got {len(requests)}"
            )
        for offset in range(self.size):
            candidate = (self._next + offset) % self.size
            if requests[candidate]:
                self._next = (candidate + 1) % self.size
                return candidate
        return None

    def advance_past(self, granted_id: int) -> None:
        """Record *granted_id* as this round's winner (it becomes lowest
        priority next time). For callers that pick the winner themselves."""
        if not 0 <= granted_id < self.size:
            raise ConfigError(f"id {granted_id} out of range")
        self._next = (granted_id + 1) % self.size

    def grant_from(self, request_ids: set[int]) -> int | None:
        """Grant among a sparse set of requesting ids."""
        if not request_ids:
            return None
        for offset in range(self.size):
            candidate = (self._next + offset) % self.size
            if candidate in request_ids:
                self._next = (candidate + 1) % self.size
                return candidate
        return None
