"""Deterministic fault injection for exercising the resilience layer.

Every recovery path in the sweep execution layer — worker-crash
isolation, per-point retries, timeout handling, corrupt cache entry
quarantine — is exercised bit-reproducibly through this module instead of
being trusted on faith. A :class:`ChaosPlan` decides, purely from its
seed and a config fingerprint, which points get which fault::

    plan = ChaosPlan(seed=7, crash_rate=0.2, state_dir=str(tmp))
    plan.fault_for(config.fingerprint())   # None | "crash" | "raise" | "slow"

Fault kinds
    ``crash``   the worker process calls ``os._exit`` mid-point (only in
                worker processes; in-process runs degrade it to ``raise``
                so the chaos harness cannot kill the driving process).
    ``raise``   the point raises :class:`~repro.errors.ChaosError` before
                simulating.
    ``slow``    the point stalls for ``slow_s`` seconds before simulating,
                tripping any configured per-point wall-clock timeout.
    ``corrupt`` the sweep cache truncates the entry it just stored, so a
                later load exercises the quarantine path.

Determinism
    The decision for a point is ``sha256(seed : kind : fingerprint)``
    compared against the configured rate — independent of execution
    order, process, or wall clock, so serial and pooled runs inject the
    same faults and a test can precompute exactly which points fire.

Once-only semantics
    With ``state_dir`` set (strongly recommended), each fault fires at
    most once: the firing process claims an ``O_EXCL`` marker file first,
    so the retry/respawn of the same point succeeds and the sweep
    completes bit-identically to a fault-free run. :meth:`ChaosPlan.fired`
    lists the claimed markers for failure summaries.

Activation
    Programmatic: ``set_plan(plan)`` (process-local). Cross-process: write
    the plan with :meth:`ChaosPlan.write` and point the ``REPRO_CHAOS``
    environment variable at the JSON file — sweep worker processes
    inherit the environment and load the plan lazily. A plan that cannot
    be loaded raises :class:`~repro.errors.ChaosError` loudly: a
    misconfigured chaos run must not silently run clean.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from ..errors import ChaosError

#: Environment variable naming a JSON chaos plan file (empty = no chaos).
CHAOS_ENV = "REPRO_CHAOS"

#: Exit status used for injected worker crashes (visible in pool logs).
CRASH_EXIT_CODE = 73

#: Fault kinds applied before a point simulates (order = precedence).
_POINT_KINDS = ("crash", "raise", "slow")

def _digest(fingerprint: str) -> str:
    """A short stable id for a point. Fingerprints are canonical JSON, so
    a *prefix* of one is shared by every config that differs only in a
    late field — marker files and log lines must hash instead."""
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True, slots=True)
class ChaosPlan:
    """A seeded, rate-based fault-injection plan.

    Rates are per-point probabilities in ``[0, 1]``; the draw is a
    deterministic hash of ``(seed, kind, fingerprint)``, so the same plan
    always faults the same points regardless of execution order.
    """

    seed: int = 0
    crash_rate: float = 0.0
    raise_rate: float = 0.0
    slow_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Stall duration for ``slow`` faults, in seconds.
    slow_s: float = 0.05
    #: Each fault fires at most once when a ``state_dir`` is available.
    once: bool = True
    #: Directory for once-only marker files (shared across processes).
    state_dir: str = ""
    #: PID of the process that authored the plan; crash faults never fire
    #: in this process (they degrade to ``raise``).
    main_pid: int = dataclasses.field(default_factory=os.getpid)

    def __post_init__(self) -> None:
        for name in ("crash_rate", "raise_rate", "slow_rate", "corrupt_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChaosError(f"{name} must be within [0, 1], got {value!r}")
        if self.slow_s < 0:
            raise ChaosError(f"slow_s cannot be negative, got {self.slow_s!r}")

    # -- deterministic fault selection -----------------------------------

    def _roll(self, kind: str, fingerprint: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{fingerprint}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def _rate(self, kind: str) -> float:
        return float(getattr(self, f"{kind}_rate"))

    def fault_for(self, fingerprint: str) -> Optional[str]:
        """The point fault injected for *fingerprint* (``None`` = clean).

        Purely a function of the plan's seed and the fingerprint; tests
        use this to precompute exactly which sweep points will fault.
        """
        for kind in _POINT_KINDS:
            rate = self._rate(kind)
            if rate > 0.0 and self._roll(kind, fingerprint) < rate:
                return kind
        return None

    def should_corrupt(self, fingerprint: str) -> bool:
        """Whether the cache entry stored for *fingerprint* gets truncated."""
        rate = self._rate("corrupt")
        return rate > 0.0 and self._roll("corrupt", fingerprint) < rate

    # -- once-only claim markers -----------------------------------------

    def _marker(self, kind: str, fingerprint: str) -> Path:
        return Path(self.state_dir) / f"{kind}-{_digest(fingerprint)[:32]}"

    def claim(self, kind: str, fingerprint: str) -> bool:
        """Atomically claim the (kind, point) fault; ``False`` = already fired.

        Without ``once`` (or without a ``state_dir`` to persist markers
        in) every claim is granted and faults fire on every attempt —
        recovery then depends on the retry/respawn bounds, which is a
        useful worst-case mode but not the default.
        """
        if not self.once or not self.state_dir:
            return True
        marker = self._marker(kind, fingerprint)
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Unwritable state dir: fail open (fault fires every time).
            return True
        os.close(handle)
        return True

    def fired(self) -> list[str]:
        """Names of the fault markers claimed so far (sorted)."""
        if not self.state_dir:
            return []
        try:
            return sorted(p.name for p in Path(self.state_dir).iterdir())
        except OSError:
            return []

    # -- (de)serialization -----------------------------------------------

    def write(self, path: str | Path) -> Path:
        """Write the plan as JSON for ``REPRO_CHAOS`` activation."""
        path = Path(path)
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2))
        return path

    @classmethod
    def read(cls, path: str | Path) -> "ChaosPlan":
        """Load a plan written by :meth:`write` (raises ChaosError loudly)."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ChaosError(f"cannot load chaos plan from {path!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ChaosError(f"chaos plan {path!r} is not a JSON object")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ChaosError(f"chaos plan {path!r} has unknown keys: {unknown}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ChaosError(f"chaos plan {path!r} is malformed: {exc}") from exc


# ---------------------------------------------------------------------------
# Process-wide selection (mirrors repro.harness.cache)
# ---------------------------------------------------------------------------

_UNSET: object = object()
#: Explicit override installed by set_plan(); _UNSET defers to the env.
_override: object = _UNSET
#: (env value, plan) pair so the plan file is parsed once per process.
_env_cache: Optional[tuple[str, ChaosPlan]] = None


def set_plan(plan: Optional[ChaosPlan]) -> None:
    """Install an explicit chaos plan (or ``None`` to disable chaos)."""
    global _override
    _override = plan


def reset_plan() -> None:
    """Drop any explicit override; revert to ``REPRO_CHAOS`` selection."""
    global _override, _env_cache
    _override = _UNSET
    _env_cache = None


def active_plan() -> Optional[ChaosPlan]:
    """The chaos plan in effect (``None`` in clean runs — the default)."""
    global _env_cache
    if _override is not _UNSET:
        return _override  # type: ignore[return-value]
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if not raw:
        return None
    if _env_cache is not None and _env_cache[0] == raw:
        return _env_cache[1]
    plan = ChaosPlan.read(raw)
    # Memoized parse keyed on the raw env string, which is fixed for a
    # worker's lifetime; chaos runs are outside the determinism contract.
    _env_cache = (raw, plan)  # repro-lint: ignore[R11]
    return plan


# ---------------------------------------------------------------------------
# Injection points (called from the resilience layer and the sweep cache)
# ---------------------------------------------------------------------------


def inject_point_fault(fingerprint: str) -> None:
    """Fire the planned fault for *fingerprint*, if any, before it runs.

    Called by :func:`repro.harness.resilience.run_point` ahead of the
    simulation. Crash faults only fire in worker processes (never in the
    plan's authoring process); with once-only markers the retried point
    then runs clean, so recovery is observable end to end.
    """
    plan = active_plan()
    if plan is None:
        return
    kind = plan.fault_for(fingerprint)
    if kind is None:
        return
    if kind == "crash" and os.getpid() == plan.main_pid:
        kind = "raise"
    if not plan.claim(kind, fingerprint):
        return
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "slow":
        time.sleep(plan.slow_s)
        return
    raise ChaosError(
        f"injected failure at point {_digest(fingerprint)[:12]} "
        f"(seed={plan.seed})"
    )


def inject_store_fault(fingerprint: str, path: str | Path) -> None:
    """Truncate the entry just stored at *path*, if the plan says so.

    Called by :meth:`repro.harness.cache.SweepCache.store` after a
    successful write; the next load of the mangled entry exercises the
    quarantine path.
    """
    plan = active_plan()
    if plan is None or not plan.should_corrupt(fingerprint):
        return
    if not plan.claim("corrupt", fingerprint):
        return
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 3))
    except OSError:
        pass
