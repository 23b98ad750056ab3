"""Failure detection in the control plane (paper §III-E.1, Table I).

LazyCtrl arranges the switches of every Local Control Group on a logical
"failure-detection wheel" with the controller at the hub.  Keep-alive probes
flow from each switch to its ring predecessor (up), to its ring successor
(down), and from the controller to every switch.  Which of the three probes
are lost identifies the failed component:

==============================  =========  =========  ================
Failure                         Sn → Sn−1  Sn → Sn+1  Controller → Sn
==============================  =========  =========  ================
Control link                                           lost
Peer link (up, to predecessor)  lost
Peer link (down, to successor)             lost
Switch Sn                       lost       lost       lost
==============================  =========  =========  ================

:class:`FailureDetector` takes a set of probe-loss observations for a switch
and returns the inferred failure, reproducing Table I exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.common.errors import FailoverError
from repro.controlplane.group import LocalControlGroup

#: Seconds between the keep-alive probes of the failure-detection wheel.
KEEPALIVE_INTERVAL_SECONDS = 1.0


class ProbeKind(enum.Enum):
    """The three keep-alive probes of the failure-detection wheel."""

    TO_PREDECESSOR = "to_predecessor"
    TO_SUCCESSOR = "to_successor"
    FROM_CONTROLLER = "from_controller"


class FailureKind(enum.Enum):
    """The failure classes of Table I."""

    NONE = "none"
    CONTROL_LINK = "control_link"
    PEER_LINK_UP = "peer_link_up"
    PEER_LINK_DOWN = "peer_link_down"
    SWITCH = "switch"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True, slots=True)
class ProbeObservation:
    """Loss observations for the three probes concerning one switch."""

    switch_id: int
    lost_to_predecessor: bool = False
    lost_to_successor: bool = False
    lost_from_controller: bool = False

    @property
    def any_loss(self) -> bool:
        """Whether any probe was lost at all."""
        return self.lost_to_predecessor or self.lost_to_successor or self.lost_from_controller


def infer_failure(observation: ProbeObservation) -> FailureKind:
    """Classify a probe-loss pattern according to Table I."""
    p = observation.lost_to_predecessor
    s = observation.lost_to_successor
    c = observation.lost_from_controller
    if p and s and c:
        return FailureKind.SWITCH
    if not p and not s and c:
        return FailureKind.CONTROL_LINK
    if p and not s and not c:
        return FailureKind.PEER_LINK_UP
    if not p and s and not c:
        return FailureKind.PEER_LINK_DOWN
    if not observation.any_loss:
        return FailureKind.NONE
    return FailureKind.AMBIGUOUS


@dataclass(frozen=True, slots=True)
class DetectionResult:
    """One detected failure: where and what."""

    switch_id: int
    failure: FailureKind


class FailureDetector:
    """Group-wide failure detector driving the keep-alive wheel."""

    def __init__(self, group: LocalControlGroup, *, keepalive_interval: float = KEEPALIVE_INTERVAL_SECONDS) -> None:
        if keepalive_interval <= 0:
            raise FailoverError("keepalive_interval must be positive")
        self._group = group
        self.keepalive_interval = keepalive_interval
        self.probes_sent = 0

    def probe_round(self, *, now: float = 0.0) -> List[ProbeObservation]:
        """Run one keep-alive round and return loss observations per switch.

        A probe toward (or from) a failed switch is lost; probes between
        healthy switches succeed.  Control-link and peer-link failures are
        modelled by the channel registry inside the group's controller and
        surface here through the explicit observation helpers used by tests;
        this method covers the common case of switch failures, which is what
        drives §III-E.3.
        """
        observations: List[ProbeObservation] = []
        for switch_id in self._group.ring_order():
            neighbors = self._group.ring_neighbors(switch_id)
            switch = self._group.member(switch_id)
            predecessor = self._group.member(neighbors.predecessor)
            successor = self._group.member(neighbors.successor)
            self.probes_sent += 3
            observations.append(
                ProbeObservation(
                    switch_id=switch_id,
                    lost_to_predecessor=switch.failed or predecessor.failed,
                    lost_to_successor=switch.failed or successor.failed,
                    lost_from_controller=switch.failed,
                )
            )
        return observations

    def detect(self, *, now: float = 0.0) -> List[DetectionResult]:
        """Run a probe round and classify every switch with any probe loss.

        Switch failures are reported for the failed switch itself; probe
        losses that are merely collateral (a healthy switch cannot reach its
        failed neighbour) are suppressed in favour of the root cause.
        """
        observations = {obs.switch_id: obs for obs in self.probe_round(now=now)}
        failed_switches = {
            switch_id
            for switch_id, obs in observations.items()
            if infer_failure(obs) == FailureKind.SWITCH
        }
        results: List[DetectionResult] = []
        for switch_id, observation in observations.items():
            failure = infer_failure(observation)
            if failure == FailureKind.NONE:
                continue
            if failure != FailureKind.SWITCH:
                neighbors = self._group.ring_neighbors(switch_id)
                # Loss explained by a failed neighbour: not a local failure.
                if (
                    (observation.lost_to_predecessor and neighbors.predecessor in failed_switches)
                    or (observation.lost_to_successor and neighbors.successor in failed_switches)
                ):
                    continue
            results.append(DetectionResult(switch_id=switch_id, failure=failure))
        return results
