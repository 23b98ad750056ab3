"""Flow records: the unit of the paper's traces.

A trace is a time-ordered sequence of *flow arrivals*: at ``start_time`` a
new flow opens between two hosts and subsequently carries ``packet_count``
packets / ``byte_count`` bytes.  Flow arrivals are what stresses the control
plane (each new flow may require a controller interaction), so the evaluation
is phrased almost entirely in terms of flow arrivals per second.
"""

from __future__ import annotations

from dataclasses import dataclass


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
