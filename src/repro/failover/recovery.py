"""Failover actions (paper §III-E.2 and §III-E.3).

The controller reacts to detected failures with three kinds of recovery:

* **Link failover** — detour routing for data-path failures, relaying
  control messages through the ring predecessor for control-link failures,
  and designated-switch re-selection when a peer-link failure touches the
  designated switch.
* **Switch failover** — spread a temporary-outage notice in the group,
  remotely reboot the switch, and re-synchronize group state when it comes
  back; if the failed switch was the designated one, promote a backup first.
* **Recovery bookkeeping** — every action is recorded so experiments can
  report how many control-plane events a failure costs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.common.errors import FailoverError
from repro.controlplane.group import LocalControlGroup
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.failover.detection import DetectionResult, FailureKind


class RecoveryAction(enum.Enum):
    """The recovery actions the failover manager can take."""

    DETOUR_ROUTE = "detour_route"
    RELAY_VIA_PREDECESSOR = "relay_via_predecessor"
    RESELECT_DESIGNATED = "reselect_designated"
    SPREAD_OUTAGE_NOTICE = "spread_outage_notice"
    REMOTE_REBOOT = "remote_reboot"
    RESYNC_GROUP_STATE = "resync_group_state"


@dataclass(frozen=True, slots=True)
class RecoveryRecord:
    """One recovery action applied to one subject."""

    switch_id: int
    failure: FailureKind
    action: RecoveryAction
    detail: str = ""


class FailoverManager:
    """Controller-side failover logic for one Local Control Group."""

    def __init__(self, controller: LazyCtrlController, group: LocalControlGroup) -> None:
        self._controller = controller
        self._group = group
        self.records: List[RecoveryRecord] = []

    # -- failure handling ------------------------------------------------------

    def handle(self, detection: DetectionResult, *, now: float = 0.0) -> List[RecoveryRecord]:
        """Apply the appropriate recovery for one detected failure."""
        if detection.failure == FailureKind.SWITCH:
            return self._handle_switch_failure(detection.switch_id, now)
        if detection.failure == FailureKind.CONTROL_LINK:
            return self._handle_control_link_failure(detection.switch_id)
        if detection.failure in (FailureKind.PEER_LINK_UP, FailureKind.PEER_LINK_DOWN):
            return self._handle_peer_link_failure(detection.switch_id, detection.failure)
        if detection.failure == FailureKind.AMBIGUOUS:
            # Treat ambiguous patterns conservatively as a data-path issue.
            return self._record(detection.switch_id, detection.failure, RecoveryAction.DETOUR_ROUTE, "ambiguous loss pattern")
        return []

    def handle_all(self, detections: List[DetectionResult], *, now: float = 0.0) -> List[RecoveryRecord]:
        """Apply recovery for a batch of detections, returning all records."""
        applied: List[RecoveryRecord] = []
        for detection in detections:
            applied.extend(self.handle(detection, now=now))
        return applied

    # -- specific failure classes ---------------------------------------------------

    def _handle_control_link_failure(self, switch_id: int) -> List[RecoveryRecord]:
        """Relay control messages for ``switch_id`` via its ring predecessor."""
        neighbors = self._group.ring_neighbors(switch_id)
        return self._record(
            switch_id,
            FailureKind.CONTROL_LINK,
            RecoveryAction.RELAY_VIA_PREDECESSOR,
            f"relay via switch {neighbors.predecessor}",
        )

    def _handle_peer_link_failure(self, switch_id: int, failure: FailureKind) -> List[RecoveryRecord]:
        """Re-select the designated switch when the failed peer link touches it."""
        neighbors = self._group.ring_neighbors(switch_id)
        other_end = neighbors.predecessor if failure == FailureKind.PEER_LINK_UP else neighbors.successor
        records = self._record(switch_id, failure, RecoveryAction.DETOUR_ROUTE, f"detour around link to {other_end}")
        if self._group.designated_switch_id in (switch_id, other_end):
            new_designated = self._group.promote_backup()
            records += self._record(
                switch_id,
                failure,
                RecoveryAction.RESELECT_DESIGNATED,
                f"designated moved to switch {new_designated}",
            )
        return records

    def _handle_switch_failure(self, switch_id: int, now: float) -> List[RecoveryRecord]:
        """Outage notice, optional designated promotion, remote reboot."""
        switch = self._group.member(switch_id)
        records = self._record(
            switch_id, FailureKind.SWITCH, RecoveryAction.SPREAD_OUTAGE_NOTICE, "temporary outage announced in group"
        )
        if switch_id == self._group.designated_switch_id:
            new_designated = self._group.promote_backup()
            records += self._record(
                switch_id,
                FailureKind.SWITCH,
                RecoveryAction.RESELECT_DESIGNATED,
                f"designated moved to switch {new_designated}",
            )
        records += self._record(switch_id, FailureKind.SWITCH, RecoveryAction.REMOTE_REBOOT, "reboot issued")
        return records

    def complete_switch_recovery(self, switch_id: int, *, now: float = 0.0) -> List[RecoveryRecord]:
        """The failed switch came back: clear the outage and re-sync group state."""
        switch = self._group.member(switch_id)
        if switch.failed:
            raise FailoverError(f"switch {switch_id} is still marked failed; clear the failure first")
        self._group.synchronize_gfibs()
        return self._record(
            switch_id, FailureKind.SWITCH, RecoveryAction.RESYNC_GROUP_STATE, "group state re-synchronized"
        )

    # -- helpers -------------------------------------------------------------------------

    def _record(self, switch_id: int, failure: FailureKind, action: RecoveryAction, detail: str) -> List[RecoveryRecord]:
        record = RecoveryRecord(switch_id=switch_id, failure=failure, action=action, detail=detail)
        self.records.append(record)
        return [record]
