"""Forwarding decisions returned by the data-plane switches.

Every packet handed to a switch produces a :class:`ForwardingDecision`
describing *which mechanism* handled it (flow table, L-FIB, G-FIB, the
controller, or a drop) and where copies were sent.  The evaluation harness
aggregates these decisions into controller workload, duplicate-delivery and
latency statistics, so the decision record carries everything those metrics
need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.packets import FlowKey, Packet
from repro.datastructures.flow_table import FlowRule


class ForwardingOutcome(enum.Enum):
    """How a packet was handled by the switch that processed it."""

    FLOW_TABLE_HIT = "flow_table_hit"
    LOCAL_DELIVERY = "local_delivery"
    INTRA_GROUP_FORWARD = "intra_group_forward"
    SENT_TO_CONTROLLER = "sent_to_controller"
    DELIVERED_AFTER_DECAP = "delivered_after_decap"
    DROPPED_FALSE_POSITIVE = "dropped_false_positive"
    DROPPED_NO_RULE = "dropped_no_rule"
    ARP_RESOLVED_LOCALLY = "arp_resolved_locally"
    ARP_FORWARDED_TO_DESIGNATED = "arp_forwarded_to_designated"
    ARP_FORWARDED_TO_CONTROLLER = "arp_forwarded_to_controller"


@dataclass(frozen=True, slots=True)
class ForwardingDecision:
    """The result of processing one packet at one switch."""

    outcome: ForwardingOutcome
    switch_id: int
    packet: Packet
    target_switches: tuple[int, ...] = ()
    local_port: Optional[int] = None
    duplicate_count: int = 0
    note: str = ""

    @property
    def involves_controller(self) -> bool:
        """Whether this decision generated work for the central controller."""
        return self.outcome in (
            ForwardingOutcome.SENT_TO_CONTROLLER,
            ForwardingOutcome.ARP_FORWARDED_TO_CONTROLLER,
        )

    @property
    def delivered(self) -> bool:
        """Whether the packet reached (or is on its way to) a destination."""
        return self.outcome in (
            ForwardingOutcome.FLOW_TABLE_HIT,
            ForwardingOutcome.LOCAL_DELIVERY,
            ForwardingOutcome.INTRA_GROUP_FORWARD,
            ForwardingOutcome.DELIVERED_AFTER_DECAP,
            ForwardingOutcome.ARP_RESOLVED_LOCALLY,
        )


#: The four outcomes a run of data packets can have, as module constants for
#: the per-packet and per-pair paths: looking a member up on the enum class
#: costs about as much as the L-FIB lookup it sits next to.
TABLE_HIT = ForwardingOutcome.FLOW_TABLE_HIT
LOCAL = ForwardingOutcome.LOCAL_DELIVERY
INTRA_GROUP = ForwardingOutcome.INTRA_GROUP_FORWARD
PUNT = ForwardingOutcome.SENT_TO_CONTROLLER
DROPPED = ForwardingOutcome.DROPPED_NO_RULE  # forward_key only: failed switch, DROP rule


@dataclass(slots=True)
class RunVerdict:
    """What back-to-back data packets of one flow key do at their ingress switch.

    The answer of :meth:`~repro.dataplane.edge_switch.EdgeSwitch.classify_run`:
    ``outcome`` is ``FLOW_TABLE_HIT`` (on ``rule``), ``LOCAL_DELIVERY`` (to
    ``local_port``), ``INTRA_GROUP_FORWARD`` (copies to ``target_switches``)
    or ``SENT_TO_CONTROLLER``, and it is the same for every packet of the run
    (``forward_key``, the applied run of one, also answers ``DROPPED_NO_RULE``).
    One is built per classified run, so it is neither frozen nor a tuple:
    both cost more to construct.
    """

    outcome: ForwardingOutcome
    key: FlowKey
    rule: Optional[FlowRule] = None
    local_port: Optional[int] = None
    target_switches: tuple[int, ...] = ()
