"""Per-uplink byte accounting during replay.

The meter models the underlay the way the paper's latency model does: the
core is an opaque one-hop fabric, so every inter-switch flow traverses
exactly two capacitated links — the source edge switch's uplink into the
core and the destination edge switch's uplink out of it.  Each observed
flow spreads its bytes over fixed accounting windows at the constant rate its
byte count and duration imply, and the offered load of the current window,
as a fraction of capacity, is what the latency model's queueing term feeds
on.  The accounting is written once, on what it reads:
:meth:`LinkUtilizationMeter.account_run` takes start, duration and byte
columns, and :meth:`~LinkUtilizationMeter.observe` is that run for one record.

A meter only exists when at least one switch has a capacity assigned;
:func:`build_link_meter` returns ``None`` otherwise, and the dataplanes
skip every congestion branch — which is what keeps capacity-less runs
bit-identical to a build without this subsystem.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bandwidth.usage import LinkUsageResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.network import DataCenterNetwork
    from repro.traffic.flow import FlowRecord

#: Bytes per second carried by one Mbit/s.
_BYTES_PER_MBPS = 125_000.0

#: The default accounting window, in seconds.
WINDOW_SECONDS = 300.0

#: An uplink's first reading of at least 1.0 in a window: (time, switch_id, utilization).
Crossing = Tuple[float, int, float]


class LinkObservation(NamedTuple):
    """What one flow arrival saw on its two uplinks."""

    src_utilization: float
    dst_utilization: float
    #: ``(switch_id, utilization)`` pairs that crossed 1.0 with this flow.
    newly_congested: Tuple[Tuple[int, float], ...]


class LinkUtilizationMeter:
    """Accumulates offered bytes per uplink per accounting window."""

    __slots__ = ("window_seconds", "_capacities_mbps", "_window_capacity_bytes", "_bytes", "_crossed")

    def __init__(self, capacities_mbps: Dict[int, float], *, window_seconds: float = WINDOW_SECONDS) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self._capacities_mbps = dict(capacities_mbps)
        self._window_capacity_bytes = {
            switch_id: mbps * _BYTES_PER_MBPS * self.window_seconds
            for switch_id, mbps in self._capacities_mbps.items()
        }
        self._bytes: Dict[int, Dict[int, float]] = {
            switch_id: {} for switch_id in self._capacities_mbps
        }
        self._crossed: set = set()

    def observe(
        self,
        flow: "FlowRecord",
        src_switch_id: int,
        dst_switch_id: int,
        now: float,
    ) -> LinkObservation:
        """Account one inter-switch flow and report current-window utilization.

        The record form of :meth:`account_run`'s step.  The returned
        utilizations include the observed flow's own current-window bytes, so
        back-to-back arrivals inside one window see monotonically growing
        load — the behaviour an M/M/1 queue's offered load should have.  An
        untracked switch reads as 0.0 utilization.
        """
        crossings: List[Crossing] = []
        src_utilization, dst_utilization = self._account(
            flow.start_time,
            flow.duration,
            flow.byte_count,
            src_switch_id,
            dst_switch_id,
            now,
            crossings,
        )
        return LinkObservation(
            src_utilization,
            dst_utilization,
            tuple([(switch_id, utilization) for _, switch_id, utilization in crossings]),
        )

    def account_run(
        self,
        starts: Sequence[float],
        durations: Sequence[float],
        byte_counts: Sequence[int],
        src_switch_ids: Sequence[int],
        dst_switch_ids: Sequence[int],
        *,
        nows: Optional[Sequence[float]] = None,
    ) -> Tuple[List[Tuple[float, float]], List[Crossing]]:
        """Account a run of inter-switch flows, in order, from parallel sequences.

        Flow ``i`` sends ``byte_counts[i]`` bytes at a constant rate over
        ``durations[i]`` seconds from ``starts[i]`` — the columns a flow chunk
        already holds — and reads its
        two uplinks at ``nows[i]``: its start, as in a replay, when ``nows``
        is omitted.  Returns each flow's ``(src_utilization,
        dst_utilization)`` and the ``(time, switch_id, utilization)``
        crossings of 1.0 in the order they happened.
        """
        crossings: List[Crossing] = []
        utilizations = list(
            map(
                self._account,
                starts,
                durations,
                byte_counts,
                src_switch_ids,
                dst_switch_ids,
                starts if nows is None else nows,
                repeat(crossings),
            )
        )
        return utilizations, crossings

    def _account(
        self,
        start: float,
        duration: float,
        byte_count: int,
        src_switch_id: int,
        dst_switch_id: int,
        now: float,
        crossings: List[Crossing],
    ) -> Tuple[float, float]:
        """Charge one flow to its two uplinks and read both back at ``now``.

        A flow that ends inside the window it starts in — nearly every flow —
        is one product, the two operations :meth:`_spread` would perform for
        it; the rest take the stepping loop.
        """
        window_seconds = self.window_seconds
        index = int(start / window_seconds)
        current_window = int(now / window_seconds)
        # Via bits per second: the rounding every pinned utilization was computed with.
        rate_bps = byte_count * 8.0 / duration
        bytes_per_second = rate_bps / 8.0
        end = start + duration
        whole = None
        if start < end <= (index + 1) * window_seconds:
            whole = bytes_per_second * (end - start)
        readings = []
        for switch_id in (src_switch_id, dst_switch_id):
            windows = self._bytes.get(switch_id)
            if windows is None:
                readings.append(0.0)
                continue
            if whole is not None:
                windows[index] = windows.get(index, 0.0) + whole
            else:
                self._spread(windows, start, index, end, bytes_per_second)
            utilization = windows.get(current_window, 0.0) / self._window_capacity_bytes[switch_id]
            readings.append(utilization)
            if utilization >= 1.0 and (switch_id, current_window) not in self._crossed:
                self._crossed.add((switch_id, current_window))
                crossings.append((now, switch_id, utilization))
        return readings[0], readings[1]

    def _spread(
        self,
        windows: Dict[int, float],
        cursor: float,
        index: int,
        end: float,
        bytes_per_second: float,
    ) -> None:
        """Distribute a flow from ``cursor``, in window ``index``, to ``end`` across windows.

        The window index is stepped, never re-derived from the cursor: at a
        boundary ``k * w`` whose quotient ``(k * w) / w`` rounds below ``k``
        a re-derived index would name the window just left, and the cursor
        would never advance.
        """
        window_seconds = self.window_seconds
        while cursor < end:
            boundary = (index + 1) * window_seconds
            step_end = end if end < boundary else boundary
            windows[index] = windows.get(index, 0.0) + bytes_per_second * (step_end - cursor)
            cursor = step_end
            if step_end == boundary:
                index += 1

    def max_utilization(self, now: float) -> float:
        """The hottest current-window offered load across all tracked uplinks."""
        index = int(now / self.window_seconds)
        peak = 0.0
        for switch_id, windows in self._bytes.items():
            value = windows.get(index, 0.0) / self._window_capacity_bytes[switch_id]
            if value > peak:
                peak = value
        return peak

    def usage(self, duration_seconds: float) -> LinkUsageResult:
        """The full utilization matrix over ``duration_seconds`` of replay.

        Bytes spilling past the end of the replay (long flows started near
        the end) are folded into the final window, mirroring how the
        metrics timeline folds overflow observations into its last bucket.
        """
        window_count = max(1, math.ceil(duration_seconds / self.window_seconds))
        matrix = {}
        for switch_id in sorted(self._bytes):
            windows = self._bytes[switch_id]
            capacity = self._window_capacity_bytes[switch_id]
            series = [0.0] * window_count
            for index, value in windows.items():
                series[min(index, window_count - 1)] += value
            matrix[str(switch_id)] = [value / capacity for value in series]
        return LinkUsageResult(
            window_seconds=self.window_seconds,
            capacities_mbps={
                str(switch_id): self._capacities_mbps[switch_id]
                for switch_id in sorted(self._capacities_mbps)
            },
            utilization=matrix,
        )


def build_link_meter(network: "DataCenterNetwork") -> Optional[LinkUtilizationMeter]:
    """A meter over the network's capacitated uplinks, or ``None`` if there are none."""
    capacities = network.link_capacities_mbps()
    if not capacities:
        return None
    return LinkUtilizationMeter(capacities, window_seconds=WINDOW_SECONDS)
