"""Exception hierarchy for the LazyCtrl reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers embedding the library can catch a single base class.  Sub-classes are
grouped by subsystem; they carry enough context in their message to be
actionable without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class AddressError(ReproError):
    """A MAC address integer or index is out of range."""


class TopologyError(ReproError):
    """The data-center topology is malformed (unknown switch, duplicate host, ...)."""


class UnknownHostError(TopologyError):
    """A host (virtual machine) referenced by name or address does not exist."""


class UnknownSwitchError(TopologyError):
    """An edge switch referenced by identifier does not exist."""


class PartitioningError(ReproError):
    """The graph-partitioning subsystem could not produce a valid grouping."""


class InfeasibleGroupingError(PartitioningError):
    """No grouping satisfying the size constraint exists for the given input."""


class ControlPlaneError(ReproError):
    """A control-plane component (controller, LCG) misbehaved."""


class FlowTableError(ReproError):
    """A flow-table operation failed (duplicate priority conflict, bad match)."""


class TrafficError(ReproError):
    """A traffic trace or generator is malformed."""


class FailoverError(ReproError):
    """Failure detection or recovery could not complete."""


class NegotiationError(ReproError):
    """The group-size bargaining procedure received invalid inputs."""
