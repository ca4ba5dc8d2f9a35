"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of this package with a single ``except`` clause
while still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class SimulationError(ReproError):
    """Raised for invalid use of the discrete-event simulation kernel."""


class SchedulingError(SimulationError):
    """Raised when an event is scheduled into the past or on a closed kernel."""


class NetworkError(ReproError):
    """Raised for invalid network-model operations."""


class TopologyError(NetworkError):
    """Raised when the neighbor topology is inconsistent or malformed."""


class WorkloadError(ReproError):
    """Raised for invalid workload-generator parameters."""


class FrameworkError(ReproError):
    """Raised for invalid framework-core configuration or state."""


class NeighborListError(FrameworkError):
    """Raised when a neighbor list operation violates capacity or membership."""


class ConfigurationError(ReproError):
    """Raised for invalid experiment or scenario configuration."""


class SanitizerError(ReproError):
    """Raised by :mod:`repro.lint.sanitize` when a runtime invariant breaks."""
