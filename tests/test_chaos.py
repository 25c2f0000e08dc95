"""The deterministic chaos harness, end to end through the backends."""

from __future__ import annotations

import os

import pytest

from repro.errors import ChaosError, SweepExecutionError
from repro.harness import cache as cache_mod
from repro.harness import chaos
from repro.harness.backends import ProcessPoolBackend
from repro.harness.chaos import (
    CHAOS_ENV,
    ChaosPlan,
    active_plan,
    inject_point_fault,
    inject_store_fault,
    set_plan,
)
from repro.harness.resilience import FailureReport, RetryPolicy, run_point
from repro.harness.sweep import rate_sweep

from .conftest import small_config


def _config(rate: float = 0.2):
    return small_config(rate=rate, warmup=100, measure=400)


class TestChaosPlan:
    def test_rates_validated(self):
        with pytest.raises(ChaosError):
            ChaosPlan(crash_rate=1.5)
        with pytest.raises(ChaosError):
            ChaosPlan(slow_s=-1.0)

    def test_fault_selection_is_deterministic_and_seeded(self):
        plan = ChaosPlan(seed=3, raise_rate=0.5)
        decisions = [plan.fault_for(f"fp-{i}") for i in range(50)]
        assert decisions == [plan.fault_for(f"fp-{i}") for i in range(50)]
        assert "raise" in decisions and None in decisions
        reseeded = ChaosPlan(seed=4, raise_rate=0.5)
        assert decisions != [reseeded.fault_for(f"fp-{i}") for i in range(50)]

    def test_rate_extremes(self):
        everything = ChaosPlan(crash_rate=1.0, raise_rate=1.0, slow_rate=1.0)
        assert everything.fault_for("any") == "crash"  # precedence order
        nothing = ChaosPlan()
        assert nothing.fault_for("any") is None
        assert not nothing.should_corrupt("any")

    def test_claim_is_once_only_with_a_state_dir(self, tmp_path):
        plan = ChaosPlan(raise_rate=1.0, state_dir=str(tmp_path))
        assert plan.claim("raise", "f" * 64)
        assert not plan.claim("raise", "f" * 64)
        assert plan.claim("raise", "0" * 64)  # a different point
        fired = plan.fired()
        assert len(fired) == 2
        assert all(marker.startswith("raise-") for marker in fired)
        assert len(set(fired)) == 2  # distinct points, distinct markers

    def test_markers_distinguish_json_fingerprints_sharing_a_prefix(
        self, tmp_path
    ):
        """Config fingerprints are canonical JSON: two rates of the same
        sweep share a long common prefix, so markers must hash."""
        plan = ChaosPlan(raise_rate=1.0, state_dir=str(tmp_path))
        near = _config(0.2).fingerprint()
        far = _config(0.4).fingerprint()
        assert plan.claim("raise", near)
        assert plan.claim("raise", far)  # must NOT collide with `near`

    def test_claim_always_granted_without_state(self, tmp_path):
        assert ChaosPlan(raise_rate=1.0).claim("raise", "f" * 64)
        repeating = ChaosPlan(raise_rate=1.0, once=False, state_dir=str(tmp_path))
        assert repeating.claim("raise", "f" * 64)
        assert repeating.claim("raise", "f" * 64)

    def test_write_read_roundtrip(self, tmp_path):
        plan = ChaosPlan(seed=9, crash_rate=0.25, state_dir=str(tmp_path))
        path = plan.write(tmp_path / "plan.json")
        assert ChaosPlan.read(path) == plan

    def test_read_rejects_bad_plans(self, tmp_path):
        with pytest.raises(ChaosError, match="cannot load"):
            ChaosPlan.read(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ChaosError, match="not a JSON object"):
            ChaosPlan.read(bad)
        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"seed": 1, "explosion_rate": 1.0}')
        with pytest.raises(ChaosError, match="unknown keys"):
            ChaosPlan.read(unknown)
        # Retired network-fault keys fail loudly instead of running clean.
        network = tmp_path / "network.json"
        network.write_text('{"seed": 1, "disconnect_rate": 0.5, "stall_s": 2.0}')
        with pytest.raises(ChaosError, match="disconnect_rate"):
            ChaosPlan.read(network)


class TestActivation:
    def test_no_plan_by_default(self):
        assert active_plan() is None
        inject_point_fault("f" * 64)  # no-op
        inject_store_fault("f" * 64, "/nonexistent")  # no-op

    def test_env_plan_loaded_and_cached(self, tmp_path, monkeypatch):
        plan = ChaosPlan(seed=5, raise_rate=1.0)
        path = plan.write(tmp_path / "plan.json")
        monkeypatch.setenv(CHAOS_ENV, str(path))
        chaos.reset_plan()
        assert active_plan() == plan
        assert active_plan() is active_plan()  # parsed once

    def test_bad_env_plan_fails_loudly(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, str(tmp_path / "missing.json"))
        chaos.reset_plan()
        with pytest.raises(ChaosError):
            active_plan()

    def test_set_plan_overrides_env(self, tmp_path, monkeypatch):
        path = ChaosPlan(raise_rate=1.0).write(tmp_path / "plan.json")
        monkeypatch.setenv(CHAOS_ENV, str(path))
        set_plan(None)
        assert active_plan() is None


class TestInjection:
    def test_raise_fault_raises_chaos_error(self):
        set_plan(ChaosPlan(seed=2, raise_rate=1.0))
        with pytest.raises(ChaosError, match="seed=2"):
            inject_point_fault("f" * 64)

    def test_crash_degrades_to_raise_in_the_authoring_process(self):
        # Were this a real os._exit, the test process would vanish here.
        set_plan(ChaosPlan(crash_rate=1.0, main_pid=os.getpid()))
        with pytest.raises(ChaosError):
            inject_point_fault("f" * 64)

    def test_slow_fault_only_delays(self):
        set_plan(ChaosPlan(slow_rate=1.0, slow_s=0.0))
        result, failure = run_point(
            _config(), runner=lambda config: "ok", sleep=lambda s: None
        )
        assert (result, failure) == ("ok", None)

    def test_slow_fault_trips_timeout_then_recovers(self, tmp_path):
        set_plan(
            ChaosPlan(slow_rate=1.0, slow_s=5.0, state_dir=str(tmp_path))
        )
        result, incident = run_point(
            _config(),
            RetryPolicy(max_attempts=2, backoff_base_s=0.0, timeout_s=0.05),
            runner=lambda config: "ok",
            sleep=lambda s: None,
        )
        assert result == "ok"
        assert incident.recovered and incident.outcome == "timeout"

    def test_store_fault_truncates_the_entry(self, tmp_path):
        victim = tmp_path / "entry.pkl"
        victim.write_bytes(b"x" * 99)
        set_plan(ChaosPlan(corrupt_rate=1.0, once=False))
        inject_store_fault("f" * 64, victim)
        assert victim.stat().st_size == 33

    def test_once_markers_make_faults_fire_exactly_once(self, tmp_path):
        set_plan(ChaosPlan(raise_rate=1.0, state_dir=str(tmp_path)))
        with pytest.raises(ChaosError):
            inject_point_fault("f" * 64)
        inject_point_fault("f" * 64)  # second attempt runs clean


class TestSerialRecovery:
    def test_raise_faults_recover_bit_identically(self, tmp_path):
        config = _config()
        rates = (0.2, 0.4)
        expected = rate_sweep(config, rates)
        set_plan(ChaosPlan(seed=1, raise_rate=1.0, state_dir=str(tmp_path)))
        report = FailureReport()
        points = rate_sweep(config, rates, failures=report)
        assert points == expected
        assert report.ok
        assert len(report.incidents) == len(rates)  # every point retried once


class TestPoolRecovery:
    """Worker crashes, cross-process via the REPRO_CHAOS environment."""

    def _chaos_env(self, plan: ChaosPlan, tmp_path, monkeypatch) -> None:
        path = plan.write(tmp_path / "plan.json")
        monkeypatch.setenv(CHAOS_ENV, str(path))
        chaos.reset_plan()

    def test_acceptance_crash_plus_corruption_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        """ISSUE acceptance: a sweep that loses a worker at a seeded point
        AND has one cache entry truncated at store time completes with
        results bit-identical to a fault-free run, reports the injected
        faults, and a follow-up run quarantines + repairs the bad entry."""
        config = _config()
        rates = (0.2, 0.3, 0.4, 0.5)
        fingerprints = [config.with_rate(r).fingerprint() for r in rates]
        expected = rate_sweep(config, rates)  # fault-free, cache off

        # Pick a seed that crashes exactly one point and corrupts exactly
        # one stored entry — purely from the plan, before anything runs.
        for seed in range(500):
            probe = ChaosPlan(seed=seed, crash_rate=0.25, corrupt_rate=0.25)
            faults = [probe.fault_for(fp) for fp in fingerprints]
            corrupts = [probe.should_corrupt(fp) for fp in fingerprints]
            if faults.count("crash") == 1 and corrupts.count(True) == 1:
                break
        else:  # pragma: no cover - seed search is deterministic
            pytest.fail("no suitable chaos seed in range")
        plan = ChaosPlan(
            seed=seed, crash_rate=0.25, corrupt_rate=0.25,
            state_dir=str(tmp_path / "chaos"), main_pid=os.getpid(),
        )
        self._chaos_env(plan, tmp_path, monkeypatch)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        cache_mod.reset_cache()

        report = FailureReport()
        points = rate_sweep(
            config, rates,
            backend=ProcessPoolBackend(2, chunksize=1),
            failures=report,
        )
        assert points == expected  # bit-identical despite the faults
        assert report.ok
        assert any(
            f.outcome == "worker-crash" and f.recovered
            for f in report.incidents
        )
        fired = plan.fired()
        assert len([m for m in fired if m.startswith("crash-")]) == 1
        assert len([m for m in fired if m.startswith("corrupt-")]) == 1

        # The truncated entry is quarantined and recomputed on the next
        # run; everything else replays from the checkpoint cache.
        cache = cache_mod.get_cache()
        assert (cache.hits, cache.misses) == (0, len(rates))
        again = rate_sweep(config, rates)
        assert again == expected
        assert cache.corrupted == 1
        assert (cache.hits, cache.misses) == (len(rates) - 1, len(rates) + 1)
        assert "quarantined" in cache.describe()
        cache_mod.reset_cache()

    def test_unrecoverable_crashes_degrade_to_partial_results(
        self, tmp_path, monkeypatch
    ):
        self._chaos_env(ChaosPlan(crash_rate=1.0, once=False), tmp_path, monkeypatch)
        configs = [_config(0.2), _config(0.3)]
        backend = ProcessPoolBackend(2, chunksize=2, max_pool_respawns=1)
        results, report = backend.run(configs)
        assert results == [None, None]
        assert not report.ok
        assert all(f.outcome == "worker-crash" for f in report.failures)
        with pytest.raises(SweepExecutionError, match="worker-crash"):
            backend.map_configs(configs)
