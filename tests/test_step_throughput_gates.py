"""The step-throughput benchmark's baseline gates compare like with like.

``check_regression`` and ``check_sanitize_overhead`` gate CI's perf smoke
against the tracked ``BENCH_step_throughput.json``. A gate that only looks
at scenarios present on both sides passes vacuously when a scenario is
renamed, dropped or added, or when the run produced no rows at all; these
tests pin that each such mismatch fails both gates.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.bench_step_throughput import (
    BASELINE_PATH,
    build_scenarios,
    check_regression,
    check_sanitize_overhead,
)

TRACKED = {
    "low-duty": {"cycles_per_s": 1000.0, "sanitize_overhead": 1.2},
    "saturation": {"cycles_per_s": 100.0, "sanitize_overhead": 1.1},
}


def _row(name: str, cycles_per_s: float, sanitize_overhead: float) -> dict:
    return {
        "scenario": name,
        "variants": {"fastforward": {"cycles_per_s": cycles_per_s}},
        "sanitize_overhead": sanitize_overhead,
    }


def _matching_rows() -> list[dict]:
    return [
        _row(name, tracked["cycles_per_s"], tracked["sanitize_overhead"])
        for name, tracked in TRACKED.items()
    ]


@pytest.fixture
def baseline(tmp_path):
    path = tmp_path / "BENCH_step_throughput.json"
    path.write_text(json.dumps({"modes": {"tiny": {"rows": TRACKED}}}))
    return path


def _gates(rows: list[dict], path) -> tuple[int, int]:
    return (
        check_regression(rows, path, "tiny", 0.25),
        check_sanitize_overhead(rows, path, "tiny", 1.5),
    )


def test_matching_scenarios_within_bounds_pass_both_gates(baseline):
    assert _gates(_matching_rows(), baseline) == (0, 0)


def test_out_of_bounds_rows_fail_both_gates(baseline):
    rows = [_row("low-duty", 1.0, 99.0), _row("saturation", 100.0, 1.1)]
    assert _gates(rows, baseline) == (1, 1)


@pytest.mark.parametrize(
    "rows",
    [
        [_row("renamed-scenario", 1.0, 99.0), _row("saturation", 100.0, 1.1)],
        [_row("saturation", 100.0, 1.1)],
        _matching_rows() + [_row("untracked", 1000.0, 1.0)],
        [],
    ],
    ids=["renamed", "missing", "extra", "empty-run"],
)
def test_scenario_set_mismatch_fails_both_gates(baseline, rows):
    assert _gates(rows, baseline) == (1, 1)


@pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "default"])
def test_committed_baseline_tracks_exactly_the_benchmarked_scenarios(tiny):
    mode = "tiny" if tiny else "default"
    tracked = json.loads(BASELINE_PATH.read_text())["modes"][mode]["rows"]
    assert {scenario.name for scenario in build_scenarios(tiny)} == set(tracked)
