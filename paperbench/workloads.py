"""The benchmark's workloads: which figures run, at which scale and seed.

Each workload calls the public figure functions of
:mod:`repro.harness.experiments` exactly as ``repro figure`` does, on a
scale preset whose workload seed comes from the benchmark's arguments.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from repro.core.thresholds import TABLE2_SETTINGS
from repro.harness import experiments
from repro.harness.paper import HEADLINE_CLAIMS
from repro.harness.scales import (
    DEFAULT_SCALE,
    SMOKE_SCALE,
    ExperimentScale,
)

CLAIMS = {claim.metric: claim.value for claim in HEADLINE_CLAIMS}


@dataclass(frozen=True, slots=True)
class SeededScale(ExperimentScale):
    """A scale preset whose workload configs use *seed* (presets use 1)."""

    seed: int = 1

    def workload(self, injection_rate: float, **overrides: object):
        overrides.setdefault("seed", self.seed)
        return ExperimentScale.workload(self, injection_rate, **overrides)


def seeded(scale: ExperimentScale, seed: int) -> SeededScale:
    fields = {f.name: getattr(scale, f.name) for f in dataclasses.fields(ExperimentScale)}
    return SeededScale(**fields, seed=seed)


@dataclass(frozen=True)
class Figure:
    """One figure's output: its rows plus the raw values behind them.

    ``group`` names the simulated points the figure reports; figures that
    report the same points (the headline table and Figure 10) share it, so
    a wrong output charges those points once.
    """

    name: str
    group: str
    points: int
    rows: list
    raw: list


def _rows(figure) -> list:
    return [list(row) for row in figure.rows]


def _sweep_raw(points) -> list:
    return [list(dataclasses.astuple(point)) for point in points]


def _result_raw(result) -> list:
    power = result.power
    return [
        result.offered_rate, result.accepted_rate, result.latency.mean,
        result.latency.median, result.latency.count, power.mean_power_w,
        power.savings_factor, power.transition_count, result.mean_level,
    ]


def headline_8x8(scale: ExperimentScale) -> tuple[list[Figure], dict]:
    """``repro figure headline``: Figure 10 plus the abstract's numbers."""
    headline = experiments.headline_summary(scale)
    summary = headline.extras["summary"]
    fig10 = headline.extras["fig10"]
    baseline, dvs = fig10.extras["baseline"], fig10.extras["dvs"]
    points = len(baseline) + len(dvs)
    figures = [
        Figure("fig10", "fig10", points, _rows(fig10),
               _sweep_raw(baseline) + _sweep_raw(dvs)),
        Figure("headline", "fig10", points, _rows(headline),
               list(dataclasses.astuple(summary))),
    ]
    claims = {
        "avg_savings_x": summary.average_savings,
        "zero_load_latency_increase": summary.zero_load_increase,
    }
    return figures, claims


def thresholds_4x4(scale: ExperimentScale) -> tuple[list[Figure], dict]:
    """``repro figure fig13``, ``fig14`` and ``fig15`` in one process.

    This workload has no no-DVS sweep, so its two claim errors use its own
    DVS points: the average savings is the mean over Figure 15's Table-2
    settings, and the light-load latency increase is that of the most
    aggressive setting over the least aggressive one at the lowest rate.
    """
    fig13 = experiments.fig13_threshold_latency(scale)
    fig14 = experiments.fig14_threshold_power(scale)
    fig15 = experiments.fig15_pareto_curve(scale)
    sweeps = fig13.extras["sweeps"]
    sweep_points = sum(len(points) for points in sweeps.values())
    names = list(TABLE2_SETTINGS)
    results = fig15.extras["points"]
    figures = [
        Figure("fig13", "fig13", sweep_points, _rows(fig13),
               [_sweep_raw(sweeps[name]) for name in names]),
        Figure("fig14", "fig14", sweep_points, _rows(fig14),
               [_sweep_raw(fig14.extras["sweeps"][name]) for name in names]),
        Figure("fig15", "fig15", len(results), _rows(fig15),
               [_result_raw(results[name]) for name in names]),
    ]
    lightest, heaviest = sweeps[names[0]][0], sweeps[names[-1]][0]
    claims = {
        "avg_savings_x": sum(r.power.savings_factor for r in results.values())
        / len(results),
        "zero_load_latency_increase": heaviest.mean_latency / lightest.mean_latency
        - 1.0,
    }
    return figures, claims


@dataclass(frozen=True)
class Workload:
    run: Callable[[ExperimentScale], tuple[list[Figure], dict]]
    scale: ExperimentScale
    #: Points one campaign attempts at a scale (cache replays included).
    points: Callable[[ExperimentScale], int]


#: The shrunk scale every workload runs at in the self-check.
QUICK_SCALE = SMOKE_SCALE.shrink(0.25)

WORKLOADS = {
    "headline-8x8": Workload(
        headline_8x8, DEFAULT_SCALE, lambda scale: 2 * len(scale.sweep_rates)
    ),
    "thresholds-4x4": Workload(
        thresholds_4x4,
        SMOKE_SCALE,
        # Figure 13's sweeps, Figure 14's replay of them, Figure 15's points.
        lambda scale: (2 * len(scale.sweep_rates) + 1) * len(TABLE2_SETTINGS),
    ),
}


def claim_errors(claims: dict) -> dict[str, float]:
    """The workload's distance from the paper's headline claims."""
    return {
        "avg_savings_err_x": abs(claims["avg_savings_x"] - CLAIMS["avg_power_savings_x"]),
        "zero_load_latency_err_pct": 100.0 * abs(
            claims["zero_load_latency_increase"] - CLAIMS["zero_load_latency_increase"]
        ),
    }
