"""Injection-trace record and replay.

Recording a workload once and replaying it lets two configurations (say,
DVS on vs. off, or two threshold settings) see *byte-identical* offered
traffic, removing generator randomness from a comparison. A trace is a
list of ``(cycle, src, dst)`` tuples sorted by cycle; JSON round-tripping
is provided for persistence.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..errors import WorkloadError
from ..network.topology import Topology
from .base import TrafficSource


class RecordingSource(TrafficSource):
    """Wraps another source, recording everything it emits."""

    def __init__(self, inner: TrafficSource):
        super().__init__(inner.topology, inner.config)
        self.inner = inner
        self.trace: list[tuple[int, int, int]] = []

    def injections(self, now: int) -> list[tuple[int, int]]:
        pairs = self.inner.injections(now)
        self.trace.extend((now, src, dst) for src, dst in pairs)
        return self._count(pairs)

    def next_injection_cycle(self, now: int) -> int | float | None:
        return self.inner.next_injection_cycle(now)

    def pending_injections(self) -> int:
        return self.inner.pending_injections()

    def save(self, path: str | Path) -> None:
        """Write the trace as JSON."""
        # Explicit export of a finished recording, called between runs;
        # the simulation loop never touches the filesystem.
        Path(path).write_text(json.dumps(self.trace))  # repro-lint: ignore[R9]


class TraceReplaySource(TrafficSource):
    """Replays a previously recorded trace."""

    def __init__(self, topology: Topology, config, trace: list[tuple[int, int, int]]):
        super().__init__(topology, config)
        previous = -1
        for cycle, src, dst in trace:
            if cycle < previous:
                raise WorkloadError("trace is not sorted by cycle")
            previous = cycle
            if not 0 <= src < topology.node_count:
                raise WorkloadError(f"trace source {src} out of range")
            if not 0 <= dst < topology.node_count or dst == src:
                raise WorkloadError(f"trace destination {dst} invalid")
        self.trace = list(trace)
        self._pos = 0

    @classmethod
    def load(cls, topology: Topology, config, path: str | Path) -> "TraceReplaySource":
        """Read a JSON trace written by :meth:`RecordingSource.save`."""
        # The documented way to build a replay source from a trace file,
        # called before a run; the simulation loop never reads files.
        raw = json.loads(Path(path).read_text())  # repro-lint: ignore[R9]
        return cls(topology, config, [tuple(entry) for entry in raw])

    def injections(self, now: int) -> list[tuple[int, int]]:
        pairs: list[tuple[int, int]] = []
        trace = self.trace
        pos = self._pos
        while pos < len(trace) and trace[pos][0] <= now:
            _, src, dst = trace[pos]
            pairs.append((src, dst))
            pos += 1
        self._pos = pos
        return self._count(pairs)

    def pending_injections(self) -> int:
        return len(self.trace) - self._pos

    def next_injection_cycle(self, now: int) -> int | float:
        if self._pos >= len(self.trace):
            return math.inf
        next_cycle = self.trace[self._pos][0]
        return next_cycle if next_cycle > now else now
