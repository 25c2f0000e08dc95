"""Outside-in per-layer time ledger.

The benchmark times each layer of ``repro`` without changing a file of it:
:func:`install` replaces the public functions and methods that mark the
layer boundaries with wrappers that record, per call, the span's duration
and the part of it not covered by wrapped calls inside it (the layer's
*self* time). Spans are folded into running totals in memory; nothing is
written until the run ends.

Pool workers are forked from the process that installed the wrappers, so
they inherit them. A worker keeps one record per simulated point and
returns the records of a chunk to the parent with the chunk's results
(:class:`ChunkResults`); the parent collects them where it unpacks worker
payloads. Wrappers only observe: arguments and return values pass through
unchanged, so a traced run's results equal an untraced run's bit for bit.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

#: Layers timed inside one simulated point, keyed by ledger layer name:
#: ``(module, class or None, attribute)``. Timing is self time, except for
#: ``runner.simulate``, which is reported as the whole ``Simulator.run``.
POINT_LAYERS = {
    "runner.build": ("repro.harness.runner", None, "build_simulator"),
    "runner.simulate": ("repro.network.simulator", "Simulator", "run"),
    "engine": ("repro.network.engine", "SimulationEngine", "step"),
    "router": ("repro.network.router", "Router", "step"),
    "controller": ("repro.core.controller", "PortDVSController", "close_window"),
    "traffic": ("repro.traffic.tasks", "TwoLevelWorkload", "injections"),
    "observers": [
        ("repro.instrument.observers", "MeasurementMeter", "on_packet_offered"),
        ("repro.instrument.observers", "MeasurementMeter", "on_packet_ejected"),
        ("repro.instrument.observers", "PowerObserver", "on_transition"),
    ],
}

#: Layers timed in the campaign's parent process.
CAMPAIGN_LAYERS = {
    "cache.load": ("repro.harness.cache", "SweepCache", "load"),
    "cache.store": ("repro.harness.cache", "SweepCache", "store"),
    "backends.pooled": ("repro.harness.backends", "ProcessPoolBackend", "run"),
}

#: Per-point counters that are not call counts.
POINT_COUNTS = ("traffic.packets", "engine.cycles_skipped", "dvs.transitions")

perf_ns = time.perf_counter_ns


class Ledger:
    """Span totals of one process: busy ns, self ns and calls per layer."""

    def __init__(self) -> None:
        self.busy: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: Time covered by finished child spans of the innermost open span.
        self.child_ns = 0
        #: Open ``ExecutionBackend.run`` calls; a point simulated while it
        #: is 0 runs outside any backend (e.g. Figure 15's in-process loop).
        #: Forked workers inherit 1, so their points count as pooled.
        self.backend_depth = 0
        #: One record per simulated point (see :meth:`close_point`).
        self.points: list[dict] = []
        self.pid = os.getpid()
        self._mark: tuple | None = None

    def span(self, layer: str, fn):
        """*fn* wrapped to add each call's busy and self time to *layer*."""
        busy, self_ns, calls = self.busy, self.self_ns, self.calls

        def traced(*args, **kwargs):
            outer = self.child_ns
            self.child_ns = 0
            start = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_ns() - start
                busy[layer] += elapsed
                self_ns[layer] += elapsed - self.child_ns
                calls[layer] += 1
                self.child_ns = outer + elapsed

        return traced

    def _snapshot(self) -> tuple:
        return (
            perf_ns(),
            {layer: self.busy[layer] for layer in POINT_LAYERS},
            {layer: self.self_ns[layer] for layer in POINT_LAYERS},
            {layer: self.calls[layer] for layer in POINT_LAYERS},
            {name: self.counts[name] for name in POINT_COUNTS},
        )

    def open_point(self) -> None:
        self._mark = self._snapshot()

    def close_point(self) -> None:
        """Record the point opened by :meth:`open_point` as ledger deltas."""
        if self._mark is None:
            raise RuntimeError("a point closed that was never opened")
        start, busy, self_ns, calls, counts = self._mark
        end, busy2, self2, calls2, counts2 = self._snapshot()
        self._mark = None
        self.points.append({
            "worker": os.getpid() != self.pid,
            "in_backend": self.backend_depth > 0,
            "wall_ns": end - start,
            "busy": {k: busy2[k] - busy[k] for k in busy},
            "self": {k: self2[k] - self_ns[k] for k in self_ns},
            "calls": {k: calls2[k] - calls[k] for k in calls},
            "counts": {k: counts2[k] - counts[k] for k in counts},
        })


class ChunkResults(list):
    """A worker chunk's results, carrying the ledger records of its points.

    A list subclass so the backend folds it exactly like the plain list
    ``run_chunk`` returns; the records ride along in the same pickle.
    """

    points: list[dict]


#: The ledger of this process, set by :func:`install`. Module state on
#: purpose: forked pool workers reach it through the module-level
#: :func:`traced_run_chunk`, which the pool pickles by reference.
ACTIVE: Ledger | None = None
_run_chunk = None


def traced_run_chunk(configs, policy):
    """``run_chunk`` in a worker, returning its points' ledger records."""
    start = len(ACTIVE.points)
    results = ChunkResults(_run_chunk(configs, policy))
    results.points = ACTIVE.points[start:]
    del ACTIVE.points[start:]
    return results


def _resolve(module_name: str, owner: str | None):
    module = importlib.import_module(module_name)
    return module if owner is None else getattr(module, owner)


def install() -> Ledger:
    """Wrap every layer boundary of ``repro``; returns the process ledger.

    Call once, before the first pool starts, so forked workers inherit the
    wrappers. Only attributes the owning class defines itself are wrapped,
    so the instrumentation bus sees exactly the hooks it saw before.
    """
    global ACTIVE, _run_chunk
    if ACTIVE is not None:
        raise RuntimeError("the ledger is already installed")
    ledger = ACTIVE = Ledger()

    # Counters and point marks go inside the span they belong to, so their
    # own cost is charged to that layer rather than to its caller.
    def build_simulator(build):
        def marked(*args, **kwargs):
            ledger.open_point()
            return build(*args, **kwargs)
        return marked

    def run(simulate):
        def counted(self):
            result = simulate(self)
            ledger.counts["engine.cycles_skipped"] += self.idle_cycles_skipped
            ledger.counts["dvs.transitions"] += result.power.transition_count
            return result
        return counted

    def injections(inject):
        def counted(self, now):
            pairs = inject(self, now)
            ledger.counts["traffic.packets"] += len(pairs)
            return pairs
        return counted

    counting = {"runner.build": build_simulator, "runner.simulate": run,
                "traffic": injections}
    for layer, targets in {**POINT_LAYERS, **CAMPAIGN_LAYERS}.items():
        for module_name, owner, attr in (
            targets if isinstance(targets, list) else [targets]
        ):
            holder = _resolve(module_name, owner)
            if owner is not None and attr not in vars(holder):
                raise RuntimeError(f"{owner} does not define {attr}")
            fn = getattr(holder, attr)
            if layer in counting:
                fn = counting[layer](fn)
            setattr(holder, attr, ledger.span(layer, fn))

    from repro.harness import backends
    from repro.network.simulator import Simulator

    traced_run = Simulator.run

    def run_point(self):
        result = traced_run(self)
        ledger.close_point()
        return result

    Simulator.run = run_point

    for backend in (backends.SerialBackend, backends.ProcessPoolBackend):
        backend.run = _depth_counted(ledger, backend.run)

    unpack = backends.ProcessPoolBackend._unpack

    def collecting_unpack(self, payload):
        ledger.points.extend(getattr(payload, "points", ()))
        return unpack(self, payload)

    backends.ProcessPoolBackend._unpack = collecting_unpack

    _run_chunk = backends.run_chunk
    backends.run_chunk = traced_run_chunk
    return ledger


def _depth_counted(ledger: Ledger, run):
    def counted(self, configs):
        ledger.backend_depth += 1
        try:
            return run(self, configs)
        finally:
            ledger.backend_depth -= 1

    return counted


def summarize(ledger: Ledger, processes: int) -> dict[str, float]:
    """The per-layer metrics of one traced campaign, summed over processes.

    Point layers are summed over every point record (parent and workers);
    campaign layers come from the parent's own totals.
    """
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    pooled_point_ns = 0
    unpooled = 0
    for point in ledger.points:
        for table, key in ((busy, "busy"), (self_ns, "self"), (calls, "calls"),
                           (counts, "counts")):
            for name, value in point[key].items():
                table[name] += value
        if point["worker"]:
            pooled_point_ns += point["wall_ns"]
        if not point["in_backend"]:
            unpooled += 1

    def seconds(ns: int) -> float:
        return ns / 1e9

    stepped = calls["engine"]
    skipped = counts["engine.cycles_skipped"]
    simulate_s = seconds(busy["runner.simulate"])
    pooled_wall_ns = ledger.busy["backends.pooled"]
    return {
        "router.step_s": seconds(self_ns["router"]),
        "router.steps": calls["router"],
        "controller.close_window_s": seconds(self_ns["controller"]),
        "controller.windows": calls["controller"],
        "dvs.transitions": counts["dvs.transitions"],
        "engine.self_s": seconds(self_ns["engine"]),
        "engine.cycles_stepped": stepped,
        "engine.cycles_skipped": skipped,
        "engine.cycles_per_s": (stepped + skipped) / simulate_s if simulate_s else 0.0,
        "traffic.injections_s": seconds(self_ns["traffic"]),
        "traffic.packets": counts["traffic.packets"],
        "observers.hooks_s": seconds(self_ns["observers"]),
        "runner.build_s": seconds(self_ns["runner.build"]),
        "runner.simulate_s": simulate_s,
        "runner.points": len(ledger.points),
        "runner.unpooled_points": unpooled,
        "backends.idle_frac": (
            1.0 - pooled_point_ns / (processes * pooled_wall_ns)
            if pooled_wall_ns else 0.0
        ),
        "cache.load_s": seconds(ledger.busy["cache.load"]),
        "cache.store_s": seconds(ledger.busy["cache.store"]),
    }
