"""Workload models (paper Section 4.3).

The centerpiece is the two-level task workload
(:class:`~repro.traffic.tasks.TwoLevelWorkload`): Poisson-arriving
communication task sessions placed with a sphere of locality, each
generating self-similar packet traffic by multiplexing Pareto ON/OFF
sources. Classic reference workloads (uniform random, permutations) and
trace record/replay live alongside. The Hurst-exponent estimators are
imported from :mod:`repro.traffic.selfsim`, so numpy stays out of every
simulation process.
"""

from .base import TrafficSource, make_traffic
from .hotspot import HotspotTraffic
from .locality import SphereOfLocality
from .onoff import OnOffSourceSet
from .pareto import pareto_mean, pareto_sample
from .permutation import PERMUTATIONS, PermutationTraffic
from .tasks import TwoLevelWorkload
from .trace import RecordingSource, TraceReplaySource
from .uniform import UniformRandomTraffic

__all__ = [
    "TrafficSource",
    "make_traffic",
    "pareto_sample",
    "pareto_mean",
    "OnOffSourceSet",
    "SphereOfLocality",
    "TwoLevelWorkload",
    "UniformRandomTraffic",
    "PermutationTraffic",
    "HotspotTraffic",
    "PERMUTATIONS",
    "RecordingSource",
    "TraceReplaySource",
]
