"""Switch-grouping management at the controller.

The grouping-management module (paper §IV-B) owns the SGI algorithm and
decides *when* to regroup:

* regrouping is triggered when the controller workload has grown by 30 %
  since the last update, or when two minutes have elapsed since the last
  update **and** an update would actually help;
* a minimum update interval (2 minutes) prevents oscillation caused by
  short-term traffic fluctuations;
* in *static* mode the initial grouping is never updated (the "LazyCtrl
  (static)" curves of Fig. 7);
* update counts per hour are recorded for Fig. 8.

The manager also maintains the traffic-intensity history: a decayed
long-term matrix plus the most recent measurement window, exactly the two
inputs ``IncUpdate`` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.config import GroupingConfig
from repro.datastructures.intensity import IntensityMatrix
from repro.obs.tracer import NULL_TRACER
from repro.partitioning.sgi import Grouping, SgiGrouper
from repro.simulation.metrics import CounterSeries

# The §IV-B regrouping triggers.  An update fires when the controller
# workload grew by 30 % since the last one, when it exceeds the overload
# threshold, when the maximum interval elapsed, or when this many VM-level
# churn changes (migrations, arrivals, departures) accumulated; churn never
# accumulates on a static topology, so that trigger leaves churn-free runs
# alone.  The two-minute minimum interval prevents oscillation.
WORKLOAD_GROWTH_TRIGGER = 0.30
MIN_INTERVAL_SECONDS = 120.0
MAX_INTERVAL_SECONDS = 7200.0
OVERLOAD_THRESHOLD_RPS = 4000.0
CHURN_EVENT_TRIGGER = 25


@dataclass(frozen=True, slots=True)
class RegroupingDecision:
    """The outcome of one periodic grouping check."""

    regrouped: bool
    reason: str
    grouping: Optional[Grouping] = None


class GroupingManager:
    """Decides when to regroup and maintains the traffic-intensity history."""

    def __init__(
        self,
        *,
        grouping_config: GroupingConfig | None = None,
        dynamic: bool = True,
        history_decay: float = 0.5,
    ) -> None:
        self.grouper = SgiGrouper(grouping_config)
        self.dynamic = dynamic
        self._history_decay = history_decay
        self.history_matrix = IntensityMatrix()
        self.recent_matrix = IntensityMatrix()
        self.current_grouping: Optional[Grouping] = None
        self.tracer = NULL_TRACER
        self.updates_series = CounterSeries(3600.0)
        self.update_count = 0
        self.churn_events_since_update = 0
        self.churn_attributed_update_count = 0
        self._last_update_time = 0.0
        self._workload_at_last_update = 0.0

    # -- traffic observation ------------------------------------------------

    def note_churn(self, count: int = 1) -> None:
        """Record VM-level topology churn (migration, arrival, departure).

        Churn accumulates until the next applied grouping update; reaching
        :data:`CHURN_EVENT_TRIGGER` pending changes is itself a regrouping
        trigger, and an update applied with churn pending is counted as
        churn-attributed.
        """
        self.churn_events_since_update += count

    def register_switches(self, switch_ids: List[int]) -> None:
        """Make isolated switches known to the intensity matrices."""
        for switch_id in switch_ids:
            self.history_matrix.add_switch(switch_id)
            self.recent_matrix.add_switch(switch_id)

    def _roll_window(self) -> None:
        """Fold the recent window into the decayed history and start a new window."""
        self.history_matrix.decay(self._history_decay)
        self.history_matrix.merge(self.recent_matrix)
        switches = self.recent_matrix.switches()
        self.recent_matrix = IntensityMatrix(switches)

    # -- initial grouping -----------------------------------------------------

    def initial_grouping(
        self,
        warmup_matrix: IntensityMatrix,
        *,
        now: float = 0.0,
        workload_rps: float = 0.0,
        group_count: int | None = None,
    ) -> Grouping:
        """Run IniGroup on warm-up traffic statistics and remember the result."""
        self.history_matrix = warmup_matrix.copy()
        self.recent_matrix = IntensityMatrix(warmup_matrix.switches())
        grouping = self.grouper.initial_grouping(warmup_matrix, group_count=group_count)
        self.current_grouping = grouping
        self.churn_events_since_update = 0
        self._last_update_time = now
        self._workload_at_last_update = workload_rps
        return grouping

    # -- periodic check ---------------------------------------------------------

    def trigger(self, now: float, workload_rps: float) -> Tuple[bool, str]:
        """Whether a §IV-B trigger fires at ``now``: ``(True, its name)`` or ``(False, why not)``.

        ``workload_rps`` is the controller's current request rate.  Pure:
        :meth:`check` asks it first, and a batched replay asks it before a
        tick to learn whether that tick can regroup.  In static mode (or
        before any initial grouping) nothing fires.
        """
        if self.current_grouping is None:
            return False, "no initial grouping yet"
        if not self.dynamic:
            return False, "static mode"

        # Boundary semantics follow §IV-B inclusively: an elapsed time of
        # exactly the minimum interval and a growth of exactly the trigger
        # both fire.  The epsilons keep that true when the values come out of
        # floating-point arithmetic a hair below the boundary.
        elapsed = now - self._last_update_time
        if elapsed + 1e-9 < MIN_INTERVAL_SECONDS:
            return False, "within minimum update interval"

        baseline = max(self._workload_at_last_update, 1e-9)
        growth = (workload_rps - self._workload_at_last_update) / baseline
        # The first trigger in precedence order names the update; the same
        # string is the applied decision's reason and the trace attribution.
        if growth >= WORKLOAD_GROWTH_TRIGGER - 1e-12 and workload_rps > 0:
            return True, "workload growth"
        if workload_rps > OVERLOAD_THRESHOLD_RPS:
            return True, "overload"
        if self.churn_events_since_update >= CHURN_EVENT_TRIGGER:
            return True, "topology churn"
        if elapsed + 1e-9 >= MAX_INTERVAL_SECONDS:
            return True, "max interval elapsed"
        return False, "no trigger fired"

    def check(self, now: float, workload_rps: float) -> RegroupingDecision:
        """Evaluate the regrouping triggers; run IncUpdate when one fires (:meth:`trigger`)."""
        fires, trigger = self.trigger(now, workload_rps)
        if not fires:
            return RegroupingDecision(regrouped=False, reason=trigger)
        # A stale grouping is replaced even when the update does not improve it.
        stale = now - self._last_update_time + 1e-9 >= MAX_INTERVAL_SECONDS
        tracer = self.tracer
        if tracer.enabled:
            from repro.obs.events import RegroupStartEvent

            tracer.emit(
                RegroupStartEvent(
                    time=now,
                    trigger=trigger,
                    churn_pending=self.churn_events_since_update,
                    workload_rps=workload_rps,
                )
            )

        report = self.grouper.incremental_update(
            self.current_grouping,
            self.history_matrix,
            self.recent_matrix,
            stop_when_intensity_below=None,
        )
        self._roll_window()
        self._last_update_time = now
        self._workload_at_last_update = workload_rps

        if not report.improved and not stale:
            # The update did not help (traffic change was noise); keep the old
            # grouping and do not count an update, mirroring the paper's goal
            # of avoiding oscillation.  Pending churn keeps accumulating so a
            # later applied update is still attributed to it.
            if tracer.enabled:
                from repro.obs.events import RegroupFinishEvent

                tracer.emit(
                    RegroupFinishEvent(
                        time=now,
                        applied=False,
                        reason="update would not improve grouping",
                        churn_attributed=False,
                        group_count=len(self.current_grouping.groups),
                    )
                )
            return RegroupingDecision(regrouped=False, reason="update would not improve grouping")

        self.current_grouping = report.grouping
        self.update_count += 1
        self.updates_series.record(now)
        churn_attributed = self.churn_events_since_update > 0
        if churn_attributed:
            self.churn_attributed_update_count += 1
        self.churn_events_since_update = 0
        if tracer.enabled:
            from repro.obs.events import RegroupFinishEvent

            tracer.emit(
                RegroupFinishEvent(
                    time=now,
                    applied=True,
                    reason=trigger,
                    churn_attributed=churn_attributed,
                    group_count=len(report.grouping.groups),
                )
            )
        return RegroupingDecision(regrouped=True, reason=trigger, grouping=report.grouping)

    # -- reporting -----------------------------------------------------------------

    def updates_per_hour(self, *, hours: int) -> List[float]:
        """Number of grouping updates in each hour bucket (Fig. 8)."""
        return [count for _, count in self.updates_series.series(bucket_range=(0, hours))]
