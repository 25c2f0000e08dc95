"""Retry policies, per-point failure records, and the failure report."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ExperimentError, SweepExecutionError
from repro.harness.resilience import (
    DEFAULT_RETRY_POLICY,
    FailureReport,
    PointFailure,
    RetryPolicy,
    run_chunk,
    run_point,
)

from .conftest import small_config


def _config(rate: float = 0.2):
    return small_config(rate=rate, warmup=100, measure=300)


class _FlakyRunner:
    """Raises for the first *failures* calls, then returns a sentinel."""

    def __init__(self, failures: int, result: str = "ok"):
        self.failures = failures
        self.result = result
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError(f"flaky failure #{self.calls}")
        return self.result


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -0.1},
            {"backoff_factor": 0.5},
            {"jitter": -0.1},
            {"jitter": 1.5},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            RetryPolicy(**kwargs)

    def test_retry_number_is_one_based(self):
        with pytest.raises(ExperimentError):
            DEFAULT_RETRY_POLICY.delay_s("abc", 0)


class TestBackoffDeterminism:
    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_base_s=0.1, jitter=0.0)
        assert policy.delay_s("fp", 1) == pytest.approx(0.1)
        assert policy.delay_s("fp", 2) == pytest.approx(0.2)
        assert policy.delay_s("fp", 3) == pytest.approx(0.4)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, jitter=0.5, jitter_seed=7)
        first = policy.delay_s("fingerprint-a", 1)
        assert first == policy.delay_s("fingerprint-a", 1)
        assert 0.5 <= first <= 1.0
        # Different points decorrelate; different seeds re-roll.
        assert first != policy.delay_s("fingerprint-b", 1)
        reseeded = RetryPolicy(backoff_base_s=1.0, jitter=0.5, jitter_seed=8)
        assert first != reseeded.delay_s("fingerprint-a", 1)


class TestRunPoint:
    def test_clean_first_attempt(self):
        runner = _FlakyRunner(failures=0)
        result, failure = run_point(_config(), runner=runner, sleep=lambda s: None)
        assert result == "ok"
        assert failure is None
        assert runner.calls == 1

    def test_retry_recovers_and_reports_an_incident(self):
        runner = _FlakyRunner(failures=1)
        delays: list[float] = []
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.25)
        result, incident = run_point(
            _config(), policy, runner=runner, sleep=delays.append
        )
        assert result == "ok"
        assert runner.calls == 2
        assert incident is not None
        assert incident.recovered
        assert incident.attempts == 2
        assert incident.outcome == "raised"
        assert "flaky failure #1" in incident.error
        fingerprint = _config().fingerprint()
        assert delays == [policy.delay_s(fingerprint, 1)]

    def test_exhausted_retries_return_a_failure(self):
        runner = _FlakyRunner(failures=10)
        result, failure = run_point(
            _config(),
            RetryPolicy(max_attempts=3, backoff_base_s=0.0),
            runner=runner,
            sleep=lambda s: None,
        )
        assert result is None
        assert runner.calls == 3
        assert not failure.recovered
        assert failure.attempts == 3
        assert failure.fingerprint == _config().fingerprint()
        assert "ValueError" in failure.error

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupts_are_never_retried(self, interrupt):
        calls = []

        def runner(config):
            calls.append(config)
            raise interrupt()

        with pytest.raises(interrupt):
            run_point(_config(), runner=runner, sleep=lambda s: None)
        assert len(calls) == 1

    def test_timeout_trips_and_is_reported(self):
        def stall(config):
            time.sleep(5.0)
            return "too late"

        result, failure = run_point(
            _config(),
            RetryPolicy(max_attempts=1, timeout_s=0.05),
            runner=stall,
            sleep=lambda s: None,
        )
        assert result is None
        assert failure.outcome == "timeout"
        assert "0.05" in failure.error

    def test_timeout_retry_can_recover(self):
        calls = []

        def slow_once(config):
            calls.append(config)
            if len(calls) == 1:
                time.sleep(5.0)
            return "recovered"

        result, incident = run_point(
            _config(),
            RetryPolicy(max_attempts=2, backoff_base_s=0.0, timeout_s=0.05),
            runner=slow_once,
            sleep=lambda s: None,
        )
        assert result == "recovered"
        assert incident.recovered
        assert incident.outcome == "timeout"

    def test_run_chunk_is_per_point(self):
        configs = [_config(0.2), _config(0.3)]
        policy = RetryPolicy(max_attempts=1, backoff_base_s=0.0)
        outcomes = run_chunk(configs, policy)
        assert len(outcomes) == 2
        for result, failure in outcomes:
            # Real simulations: both points run clean.
            assert failure is None
            assert result is not None


class TestFailureReport:
    def _failure(self, **overrides):
        values = dict(
            fingerprint="f" * 64, outcome="raised", attempts=2,
            error="ValueError('x')",
        )
        values.update(overrides)
        return PointFailure(**values)

    def test_record_routes_by_recovered_flag(self):
        report = FailureReport()
        report.record(self._failure())
        report.record(self._failure(recovered=True))
        assert len(report.failures) == 1
        assert len(report.incidents) == 1
        assert not report.ok

    def test_ok_with_only_incidents(self):
        report = FailureReport()
        report.record(self._failure(recovered=True))
        assert report.ok
        report.raise_if_failures()  # must not raise

    def test_merge_combines_both_lists(self):
        left, right = FailureReport(), FailureReport()
        left.record(self._failure())
        right.record(self._failure(recovered=True))
        right.record(self._failure(outcome="timeout"))
        left.merge(right)
        assert len(left.failures) == 2
        assert len(left.incidents) == 1

    def test_raise_if_failures_is_structured(self):
        report = FailureReport()
        report.record(self._failure(points=3, outcome="worker-crash"))
        with pytest.raises(SweepExecutionError) as excinfo:
            report.raise_if_failures(total=10)
        assert "3 of 10" in str(excinfo.value)
        assert excinfo.value.failures == tuple(report.failures)

    def test_describe_lists_failures_and_incidents(self):
        import hashlib

        report = FailureReport()
        assert report.describe() == ""
        report.record(self._failure())
        report.record(self._failure(recovered=True, outcome="timeout"))
        text = report.describe()
        assert "1 point(s) failed" in text
        assert "1 incident(s) recovered" in text
        short = hashlib.sha256(("f" * 64).encode()).hexdigest()[:12]
        assert short in text

    def test_point_failure_describe(self):
        lost = self._failure(points=4, outcome="worker-crash")
        assert "4 points" in lost.describe()
        assert "failed (worker-crash)" in lost.describe()
        saved = self._failure(recovered=True)
        assert "recovered" in saved.describe()


class TestFailureReportMergeEdgeCases:
    """Merge semantics ``sweep`` leans on when it folds each batch's report
    into the caller's: reports concatenate without deduplication or
    reordering."""

    def _failure(self, fingerprint: str, **overrides) -> PointFailure:
        values = dict(
            fingerprint=fingerprint, outcome="raised", attempts=1,
            error="ValueError('x')",
        )
        values.update(overrides)
        return PointFailure(**values)

    def test_merging_an_empty_report_is_identity_both_ways(self):
        report = FailureReport()
        report.record(self._failure("a" * 64))
        report.record(self._failure("b" * 64, recovered=True))
        before = (list(report.failures), list(report.incidents))
        report.merge(FailureReport())
        assert (report.failures, report.incidents) == before

        fresh = FailureReport()
        fresh.merge(report)
        assert (fresh.failures, fresh.incidents) == before
        assert FailureReport().ok  # and two empties merge to an empty
        empty = FailureReport()
        empty.merge(FailureReport())
        assert not empty.failures and not empty.incidents

    def test_overlapping_fingerprints_keep_every_record(self):
        """The same point can fail in two shards (a stolen chunk whose
        original and thief both died): merge must not collapse them —
        each record carries its own outcome and attempt count."""
        fingerprint = "f" * 64
        left, right = FailureReport(), FailureReport()
        left.record(self._failure(fingerprint, outcome="timeout"))
        right.record(self._failure(fingerprint, outcome="raised", attempts=2))
        right.record(self._failure(fingerprint, recovered=True,
                                   outcome="host-lost"))
        left.merge(right)
        assert len(left.failures) == 2
        assert {f.outcome for f in left.failures} == {"timeout", "raised"}
        assert all(f.fingerprint == fingerprint for f in left.failures)
        assert len(left.incidents) == 1
        assert not left.ok

    def test_merge_preserves_incident_ordering(self):
        """Receiver's records stay first, source's follow in their own
        order — so a campaign-level report reads chronologically."""
        left, right = FailureReport(), FailureReport()
        left.record(self._failure("a" * 64, recovered=True))
        left.record(self._failure("b" * 64, recovered=True))
        right.record(self._failure("c" * 64, recovered=True))
        right.record(self._failure("d" * 64, recovered=True))
        left.merge(right)
        assert [i.fingerprint[0] for i in left.incidents] == ["a", "b", "c", "d"]
        # A second merge appends again; merge is not idempotent by design.
        left.merge(right)
        assert [i.fingerprint[0] for i in left.incidents] == [
            "a", "b", "c", "d", "c", "d",
        ]


def _in_thread(fn):
    """Run *fn* on a fresh non-main thread, re-raising what it raised."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestOffMainThreadTimeout:
    """timeout_s away from the main thread: SIGALRM cannot be armed
    there, so the watchdog fallback must enforce the deadline instead.
    The same watchdog is the only timeout path on runtimes without
    SIGALRM."""

    def test_timeout_trips_in_a_worker_thread(self):
        def stall(config):
            time.sleep(5.0)
            return "too late"

        result, failure = _in_thread(
            lambda: run_point(
                _config(),
                RetryPolicy(max_attempts=1, timeout_s=0.05),
                runner=stall,
                sleep=lambda s: None,
            )
        )
        assert result is None
        assert failure.outcome == "timeout"
        assert "0.05" in failure.error

    def test_timeout_retry_recovers_in_a_worker_thread(self):
        calls: list = []

        def slow_once(config):
            calls.append(config)
            if len(calls) == 1:
                time.sleep(5.0)
            return "recovered"

        result, incident = _in_thread(
            lambda: run_point(
                _config(),
                RetryPolicy(max_attempts=2, backoff_base_s=0.0, timeout_s=0.05),
                runner=slow_once,
                sleep=lambda s: None,
            )
        )
        assert result == "recovered"
        assert incident.recovered and incident.outcome == "timeout"

    def test_fast_point_is_not_interrupted_and_watchdog_disarms(self):
        def quick(config):
            return "done"

        result, failure = _in_thread(
            lambda: run_point(
                _config(),
                RetryPolicy(max_attempts=1, timeout_s=5.0),
                runner=quick,
                sleep=lambda s: None,
            )
        )
        assert (result, failure) == ("done", None)
        # The watchdog timer was cancelled: nothing fires later.
        time.sleep(0.05)

    def test_missing_watchdog_support_fails_loudly(self, monkeypatch):
        """No SIGALRM (off-main) and no async-exception machinery: the
        deadline refuses to run unprotected instead of silently
        dropping timeout enforcement."""
        from repro.errors import ConfigError
        from repro.harness import resilience

        monkeypatch.setattr(resilience, "_HAS_ASYNC_EXC", False)

        def protected():
            with resilience._deadline(0.1):
                return "ran"

        with pytest.raises(ConfigError, match="cannot be enforced"):
            _in_thread(protected)
