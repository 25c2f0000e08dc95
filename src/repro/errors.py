"""Exception hierarchy for the repro package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration object is invalid or internally inconsistent."""


class TopologyError(ReproError):
    """A topology request cannot be satisfied (bad radix, unknown node...)."""


class RoutingError(ReproError):
    """A routing function produced or received an illegal route."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (a bug or misuse)."""


class FlowControlError(SimulationError):
    """Credit accounting was violated (overflow / negative credits)."""


class LinkStateError(ReproError):
    """An illegal command was issued to a DVS link state machine."""


class WorkloadError(ReproError):
    """A traffic generator was configured or driven incorrectly."""


class ExperimentError(ReproError):
    """An experiment harness invocation is invalid."""


class SweepExecutionError(ExperimentError):
    """One or more sweep points failed after retries were exhausted.

    ``failures`` carries the structured per-point records
    (:class:`~repro.harness.resilience.PointFailure`) so callers can
    report exactly which configs failed and why, instead of digging
    through an opaque worker traceback.
    """

    def __init__(self, message: str, failures: "tuple | list" = ()) -> None:
        super().__init__(message)
        self.failures = tuple(failures)


class ChaosError(ReproError):
    """A fault injected by the chaos harness (never raised in clean runs)."""
