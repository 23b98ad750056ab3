"""Flow records: the unit of the paper's traces.

A trace is a time-ordered sequence of *flow arrivals*: at ``start_time`` a
new flow opens between two hosts and subsequently carries ``packet_count``
packets / ``byte_count`` bytes.  Flow arrivals are what stresses the control
plane (each new flow may require a controller interaction), so the evaluation
is phrased almost entirely in terms of flow arrivals per second.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bandwidth.profile import RateProfile


@dataclass(frozen=True, slots=True, order=True)
class FlowRecord:
    """One flow of a traffic trace.

    Records are ordered by start time (then flow id) so a sorted list of
    records is a valid replay order.
    """

    start_time: float
    flow_id: int
    src_host_id: int
    dst_host_id: int
    packet_count: int = 10
    byte_count: int = 15_000
    duration: float = 1.0
    # Excluded from ordering: flow ids are unique within a trace, so the
    # comparison never gets this far, and a None/profile mix must not break
    # sorting if it somehow did.
    rate_profile: Optional[RateProfile] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("flow start_time must be non-negative")
        if self.src_host_id == self.dst_host_id:
            raise ValueError("a flow must connect two distinct hosts")
        if self.packet_count <= 0:
            raise ValueError("packet_count must be positive")
        if self.byte_count <= 0:
            raise ValueError("byte_count must be positive")
        # A zero duration would divide-by-zero in rate derivation; negative
        # durations were always nonsense.
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def host_pair(self) -> tuple[int, int]:
        """The ordered (source, destination) host pair."""
        return (self.src_host_id, self.dst_host_id)

    @property
    def unordered_pair(self) -> tuple[int, int]:
        """The unordered host pair (used for pair-activity statistics)."""
        a, b = self.src_host_id, self.dst_host_id
        return (a, b) if a <= b else (b, a)

    @property
    def end_time(self) -> float:
        """Time at which the flow's last packet is sent."""
        return self.start_time + self.duration
