"""Retry policies and structured failure records for sweep execution.

One OOM-killed worker, one raising config, or one Ctrl-C used to lose an
entire figure campaign. This module is the failure model the execution
backends (:mod:`repro.harness.backends`) build on instead:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *seeded deterministic* jitter, plus an optional per-point wall-clock
  timeout. ``KeyboardInterrupt``/``SystemExit`` are always re-raised, so
  a retry wrapper can never eat an interrupt (lint rule R7 enforces the
  same contract statically for all harness code).
* :class:`PointFailure` — the structured record of one failed (or
  recovered) point: config fingerprint, attempt count, exception repr,
  and the worker outcome. Sweeps degrade gracefully to partial results
  plus an explicit :class:`FailureReport` instead of an opaque traceback.
* :func:`run_point` / :func:`run_chunk` — the resilient single-point and
  per-chunk primitives both backends execute; chaos faults
  (:mod:`repro.harness.chaos`) are injected here, never inside the pure
  simulation path, so golden bit-identity is untouched.

Determinism: retries only re-run a *failed* point, backoff jitter is a
pure function of ``(seed, fingerprint, attempt)``, and a recovered point
returns the exact result an undisturbed run would have produced — so
sweeps that survive faults stay bit-identical to fault-free runs.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterator, Optional, Sequence

try:  # pragma: no cover - absent only on non-CPython runtimes
    import ctypes

    _HAS_ASYNC_EXC = hasattr(ctypes, "pythonapi")
except ImportError:  # pragma: no cover
    ctypes = None  # type: ignore[assignment]
    _HAS_ASYNC_EXC = False

from ..config import SimulationConfig
from ..errors import ConfigError, ExperimentError, SweepExecutionError
from ..network.simulator import SimulationResult
from .chaos import inject_point_fault
from .runner import run_simulation


class PointTimeout(Exception):
    """Internal: a point exceeded its per-point wall-clock budget."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded, deterministic retry behavior for one sweep point.

    ``max_attempts`` counts the first try: ``1`` disables retries. The
    delay before retry *n* (1-based) is
    ``backoff_base_s * backoff_factor ** (n - 1)``, shrunk by up to
    ``jitter`` (a fraction in ``[0, 1]``) using a generator seeded from
    ``(jitter_seed, fingerprint, n)`` — the same point always backs off
    identically, but different points decorrelate. ``timeout_s`` bounds
    one attempt's wall clock: ``SIGALRM`` on the main thread, an
    async-exception watchdog off it (see :func:`_deadline`); when neither
    is available the policy refuses to run rather than silently dropping
    the protection.
    """

    max_attempts: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5
    jitter_seed: int = 0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError("max_attempts must be at least 1")
        if self.backoff_base_s < 0:
            raise ExperimentError("backoff_base_s cannot be negative")
        if self.backoff_factor < 1.0:
            raise ExperimentError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ExperimentError("jitter must be within [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ExperimentError("timeout_s must be positive when set")

    def delay_s(self, fingerprint: str, retry: int) -> float:
        """Seconds to wait before retry number *retry* (1-based)."""
        if retry < 1:
            raise ExperimentError("retry number is 1-based")
        base = self.backoff_base_s * self.backoff_factor ** (retry - 1)
        if not self.jitter or not base:
            return base
        rng = Random(f"{self.jitter_seed}:{fingerprint}:{retry}")
        return base * (1.0 - self.jitter * rng.random())


#: The policy backends use when none is given: one retry, tiny backoff,
#: no per-point timeout. Deterministic failures fail fast; transient ones
#: (a chaos fault, a flaky worker) get exactly one second chance.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True, slots=True)
class PointFailure:
    """What happened to one sweep point that did not run cleanly.

    ``recovered`` distinguishes an *incident* (a retry or pool respawn
    eventually produced the result) from a fatal failure (the point has
    no result). ``points`` is 1 except for worker-crash records, which
    describe a whole lost chunk.
    """

    fingerprint: str
    outcome: str  # "raised" | "timeout" | "worker-crash" | "executor"
    attempts: int
    error: str
    recovered: bool = False
    points: int = 1

    def describe(self) -> str:
        state = "recovered" if self.recovered else "failed"
        span = f"{self.points} points" if self.points > 1 else "point"
        # Fingerprints are canonical JSON; hash for a usable short id
        # (prefixes of the JSON are shared across most points).
        short = hashlib.sha256(self.fingerprint.encode("utf-8")).hexdigest()[:12]
        return (
            f"{span} {short}: {state} ({self.outcome}) "
            f"after {self.attempts} attempt(s): {self.error}"
        )


@dataclass
class FailureReport:
    """Aggregated failures and recovered incidents for one sweep."""

    failures: list[PointFailure] = field(default_factory=list)
    incidents: list[PointFailure] = field(default_factory=list)

    def record(self, failure: PointFailure) -> None:
        (self.incidents if failure.recovered else self.failures).append(failure)

    def merge(self, other: "FailureReport") -> None:
        self.failures.extend(other.failures)
        self.incidents.extend(other.incidents)

    @property
    def ok(self) -> bool:
        """True when every point produced a result (incidents are fine)."""
        return not self.failures

    def raise_if_failures(self, total: Optional[int] = None) -> None:
        """Raise :class:`SweepExecutionError` when any point has no result."""
        if not self.failures:
            return
        lost = sum(f.points for f in self.failures)
        of_total = f" of {total}" if total is not None else ""
        lines = "\n".join(f"  - {f.describe()}" for f in self.failures)
        raise SweepExecutionError(
            f"{lost}{of_total} sweep point(s) failed after retries:\n{lines}",
            failures=self.failures,
        )

    def describe(self) -> str:
        """Multi-line human summary (empty string when nothing happened)."""
        lines: list[str] = []
        if self.failures:
            lines.append(f"{len(self.failures)} point(s) failed:")
            lines.extend(f"  - {f.describe()}" for f in self.failures)
        if self.incidents:
            lines.append(f"{len(self.incidents)} incident(s) recovered:")
            lines.extend(f"  - {f.describe()}" for f in self.incidents)
        return "\n".join(lines)


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`PointTimeout` if the block exceeds *seconds*.

    On the main thread of a Unix process (serial runs, process-pool
    workers) the deadline is a ``SIGALRM``/``setitimer``. Off the main
    thread — a caller that runs points from a thread of its own — and on
    runtimes without ``SIGALRM``, signals cannot be armed, so a monotonic
    watchdog timer delivers :class:`PointTimeout` asynchronously into the
    running thread instead (:func:`_watchdog_deadline`). A timeout is
    therefore *always* enforced; if neither mechanism exists on the
    platform, a :class:`~repro.errors.ConfigError` says so loudly rather
    than silently dropping the protection.
    """
    if seconds is None:
        yield
        return
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        def _trip(signum: int, frame: object) -> None:
            raise PointTimeout(f"point exceeded {seconds:g}s wall clock")

        previous = signal.signal(signal.SIGALRM, _trip)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return
    if not _HAS_ASYNC_EXC:
        raise ConfigError(
            "per-point timeout_s cannot be enforced here: SIGALRM is "
            "unavailable off the main thread and this runtime has no "
            "PyThreadState_SetAsyncExc fallback; drop timeout_s or run "
            "points on the main thread"
        )
    with _watchdog_deadline(seconds):
        yield


@contextmanager
def _watchdog_deadline(seconds: float) -> Iterator[None]:
    """Off-main-thread deadline: a watchdog timer asynchronously raises
    :class:`PointTimeout` in the calling thread after *seconds*.

    Uses ``PyThreadState_SetAsyncExc``, which delivers the exception at
    the next bytecode boundary — it interrupts pure-Python work (the
    simulator kernel) but not a blocking C call, which only trips the
    deadline once it returns. Disarm is race-guarded: after the block
    exits the watchdog can no longer raise, and a pending undelivered
    exception is cleared.
    """
    thread_id = threading.get_ident()
    lock = threading.Lock()
    armed = [True]
    message = f"point exceeded {seconds:g}s wall clock"

    # PyThreadState_SetAsyncExc only accepts an exception *class* (an
    # instance trips SystemError at delivery), so the deadline message
    # rides in via a closure subclass instantiated at raise time.
    class _Expired(PointTimeout):
        def __init__(self) -> None:
            super().__init__(message)

    def _fire() -> None:
        with lock:
            if armed[0]:
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(thread_id), ctypes.py_object(_Expired)
                )

    watchdog = threading.Timer(seconds, _fire)
    watchdog.daemon = True
    watchdog.start()
    try:
        yield
    finally:
        with lock:
            armed[0] = False
            watchdog.cancel()
            # Clear a fired-but-undelivered exception so it cannot leak
            # into unrelated code after the protected block.
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(thread_id), None
            )


def run_point(
    config: SimulationConfig,
    policy: Optional[RetryPolicy] = None,
    *,
    runner: Optional[Callable[[SimulationConfig], SimulationResult]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Optional[SimulationResult], Optional[PointFailure]]:
    """Run one point under *policy*; never raises for per-point faults.

    Returns ``(result, None)`` on a clean first attempt,
    ``(result, incident)`` when a retry recovered the point, and
    ``(None, failure)`` when every attempt failed.
    ``KeyboardInterrupt``/``SystemExit`` always propagate immediately.
    """
    if policy is None:
        policy = DEFAULT_RETRY_POLICY
    if runner is None:
        runner = run_simulation
    fingerprint = config.fingerprint()
    outcome = "raised"
    error = ""
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            sleep(policy.delay_s(fingerprint, attempt - 1))
        try:
            with _deadline(policy.timeout_s):
                inject_point_fault(fingerprint)
                result = runner(config)
        except (KeyboardInterrupt, SystemExit):
            raise
        except PointTimeout as exc:
            outcome, error = "timeout", str(exc)
        except Exception as exc:
            outcome, error = "raised", repr(exc)
        else:
            incident = None
            if attempt > 1:
                incident = PointFailure(
                    fingerprint=fingerprint,
                    outcome=outcome,
                    attempts=attempt,
                    error=error,
                    recovered=True,
                )
            return result, incident
    return None, PointFailure(
        fingerprint=fingerprint,
        outcome=outcome,
        attempts=policy.max_attempts,
        error=error,
    )


def run_chunk(
    configs: Sequence[SimulationConfig], policy: RetryPolicy
) -> list[tuple[Optional[SimulationResult], Optional[PointFailure]]]:
    """The process-pool work unit: :func:`run_point` over one chunk.

    Top-level (picklable) on purpose — :class:`ProcessPoolBackend`
    submits this per chunk so a raising point inside a worker comes back
    as a :class:`PointFailure` instead of poisoning the whole batch.
    """
    return [run_point(config, policy) for config in configs]
