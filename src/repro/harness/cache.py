"""Content-addressed on-disk memoization of sweep simulation results.

A simulation is fully described by its (frozen, picklable)
:class:`~repro.config.SimulationConfig` — the workload seed included — so
its :class:`~repro.network.simulator.SimulationResult` can be cached on
disk and reused across processes and sessions. Every execution backend
(:mod:`repro.harness.backends`) consults the cache transparently: a sweep
re-run only simulates points it has never seen.

Key construction
    ``sha256(code_epoch + "\\n" + config.fingerprint())`` where the
    fingerprint is the config's canonical JSON (sorted keys, fixed
    separators — see :func:`~repro.harness.serialization.canonical_json`)
    and :data:`CODE_EPOCH` names the current simulated semantics. The
    epoch is a digest of the golden runs, enforced by
    ``tests/test_golden_determinism.py::TestCacheEpoch``: a change that
    alters simulation output fails that test, which prints the new epoch;
    old entries are simply never looked up again.

Safety
    Entries verify their stored fingerprint on load (hash collisions and
    stale schema both degrade to a miss), and writes go through a temp
    file + ``os.replace`` so concurrent sweep processes never observe a
    torn entry. Store failures are swallowed: a read-only cache directory
    slows a sweep down, it never breaks one. A corrupt or unreadable
    entry is *quarantined* — renamed to ``<key>.corrupt`` and counted in
    :attr:`SweepCache.corrupted` — so it is recomputed exactly once
    instead of being silently re-parsed (and re-missed) forever.

Checkpointing
    :meth:`SweepCache.map_cached` consumes the backend's results as a
    stream and stores each one the moment it is produced, so an interrupt
    or crash at point 99/100 keeps the 99 computed results. The process
    pool backend goes further and stores each chunk as it completes (out
    of completion order); either way, re-running an interrupted campaign
    — e.g. via the CLI's ``--resume`` — replays finished points from disk
    and recomputes only the missing ones.

Escape hatches
    ``REPRO_CACHE=off`` (also ``0``/``no``/``none``/``disabled``)
    disables caching; any other non-empty value is used as the cache
    directory; unset picks ``$XDG_CACHE_HOME/repro/sweeps`` (falling back
    to ``~/.cache``). The CLI's ``--no-cache`` flag and tests use
    :func:`set_cache` to override programmatically.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..config import SimulationConfig
from ..errors import ExperimentError
from .chaos import inject_store_fault

#: Environment variable controlling the cache location (or disabling it).
CACHE_ENV = "REPRO_CACHE"

#: Name of the current simulated semantics: a digest of the golden runs,
#: checked by ``tests/test_golden_determinism.py::TestCacheEpoch``, which
#: fails with the new value whenever simulated output changes.
CODE_EPOCH = "golden-955e8bdb6865308b"

_DISABLE_VALUES = frozenset({"0", "off", "no", "none", "disabled", "false"})


class SweepCache:
    """One on-disk result store plus in-process hit/miss counters."""

    def __init__(self, root: str | Path, *, epoch: str = CODE_EPOCH) -> None:
        self.root = Path(root).expanduser()
        self.epoch = epoch
        self.hits = 0
        self.misses = 0
        self.corrupted = 0

    # -- keys ------------------------------------------------------------

    def _key(self, fingerprint: str) -> str:
        digest = hashlib.sha256()
        digest.update(self.epoch.encode("utf-8"))
        digest.update(b"\n")
        digest.update(fingerprint.encode("utf-8"))
        return digest.hexdigest()

    def _path(self, fingerprint: str) -> Path:
        key = self._key(fingerprint)
        return self.root / self.epoch / key[:2] / f"{key}.pkl"

    def entry_path(self, config: SimulationConfig) -> Path:
        """Where *config*'s result lives (whether or not it exists yet)."""
        return self._path(config.fingerprint())

    # -- single-entry operations ----------------------------------------

    def contains(self, config: SimulationConfig) -> bool:
        """Whether an entry file exists for *config*.

        A cheap existence probe (no integrity check, no counter bumps)
        for resume previews; the authoritative answer is :meth:`load`.
        """
        return self.entry_path(config).is_file()

    def load(self, config: SimulationConfig) -> object | None:
        """The cached result for *config*, or ``None`` on any miss.

        An entry that exists but cannot be read back (torn write, disk
        corruption, stale pickle schema, fingerprint mismatch) is
        quarantined via :meth:`_quarantine` rather than silently skipped,
        so the recompute-and-store that follows repairs the cache.
        """
        fingerprint = config.fingerprint()
        path = self._path(fingerprint)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("fingerprint") != fingerprint:
            self._quarantine(path)
            return None
        return entry.get("result")

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside as ``<key>.corrupt`` and count it."""
        self.corrupted += 1
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass

    @staticmethod
    def _write_atomic(path: Path, payload: bytes) -> None:
        """Write *payload* to *path* via temp file + atomic ``os.replace``.

        Two processes storing the same key concurrently each write their
        own temp file and race on the final rename; a reader observes
        either no entry or one complete entry, never interleaved bytes.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def store(self, config: SimulationConfig, result: object) -> None:
        """Persist *result* for *config*; best-effort (never raises OSError)."""
        fingerprint = config.fingerprint()
        payload = pickle.dumps(
            {
                "epoch": self.epoch,
                "fingerprint": fingerprint,
                "result": result,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        path = self._path(fingerprint)
        try:
            self._write_atomic(path, payload)
            inject_store_fault(fingerprint, path)
        except OSError:
            pass

    # -- batch operation (the backend entry point) -----------------------

    def partition(
        self, configs: Sequence[SimulationConfig]
    ) -> tuple[list, list[int], list[SimulationConfig]]:
        """Split *configs* into cached results and misses.

        Returns ``(results, miss_indices, miss_configs)`` where *results*
        has the cached value at every hit index and ``None`` holes at the
        miss indices; hit/miss counters are updated. Backends fill the
        holes themselves when they need finer control (e.g. per-chunk
        checkpointing) than :meth:`map_cached` offers.
        """
        configs = list(configs)
        results: list = [None] * len(configs)
        miss_indices: list[int] = []
        miss_configs: list[SimulationConfig] = []
        for index, config in enumerate(configs):
            cached = self.load(config)
            if cached is None:
                self.misses += 1
                miss_indices.append(index)
                miss_configs.append(config)
            else:
                self.hits += 1
                results[index] = cached
        return results, miss_indices, miss_configs

    def map_cached(
        self,
        configs: Sequence[SimulationConfig],
        run_batch: Callable[[list[SimulationConfig]], Iterable],
    ) -> list:
        """Results for *configs* in order, computing only the misses.

        *run_batch* receives the missing configs (input order preserved)
        and must yield one result per config. The stream is consumed
        lazily and every freshly computed result is stored the moment it
        is produced — an interrupt or crash mid-batch keeps all completed
        work on disk. A ``None`` result (the backends' marker for a point
        that failed after retries) is passed through but never persisted.
        """
        results, miss_indices, miss_configs = self.partition(configs)
        if miss_configs:
            produced = 0
            for result in run_batch(miss_configs):
                if produced >= len(miss_configs):
                    raise ExperimentError(
                        f"backend produced more than {len(miss_configs)} "
                        "results for the missing configs"
                    )
                if result is not None:
                    self.store(miss_configs[produced], result)
                results[miss_indices[produced]] = result
                produced += 1
            if produced != len(miss_configs):
                raise ExperimentError(
                    f"backend returned {produced} results for "
                    f"{len(miss_configs)} configs"
                )
        return results

    def describe(self) -> str:
        """One-line human summary for sweep output."""
        quarantined = (
            f", {self.corrupted} corrupted entries quarantined"
            if self.corrupted
            else ""
        )
        return f"{self.hits} hits, {self.misses} misses{quarantined} ({self.root})"

    def __repr__(self) -> str:
        return f"SweepCache(root={str(self.root)!r}, epoch={self.epoch!r})"


# ---------------------------------------------------------------------------
# Process-wide selection
# ---------------------------------------------------------------------------

_UNSET = object()
#: Explicit override installed by set_cache(); _UNSET defers to the env.
_override = _UNSET
#: Root path -> instance, so hit/miss counters accumulate per process.
_instances: dict[str, SweepCache] = {}


def default_cache_root() -> Path:
    """``$XDG_CACHE_HOME/repro/sweeps``, falling back to ``~/.cache``."""
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = Path(base).expanduser() if base else Path("~/.cache").expanduser()
    return root / "repro" / "sweeps"


def cache_from_env() -> SweepCache | None:
    """The cache selected by ``REPRO_CACHE`` (``None`` when disabled)."""
    raw = os.environ.get(CACHE_ENV, "").strip()
    if raw.lower() in _DISABLE_VALUES:
        return None
    root = Path(raw).expanduser() if raw else default_cache_root()
    key = str(root)
    cache = _instances.get(key)
    if cache is None:
        cache = _instances[key] = SweepCache(root)
    return cache


def get_cache() -> SweepCache | None:
    """The active sweep cache: the override if set, else the environment."""
    if _override is not _UNSET:
        return _override  # type: ignore[return-value]
    return cache_from_env()


def set_cache(cache: SweepCache | None) -> None:
    """Install an explicit cache (or ``None`` to disable caching)."""
    global _override
    _override = cache


def reset_cache() -> None:
    """Drop any explicit override; revert to environment selection."""
    global _override
    _override = _UNSET
