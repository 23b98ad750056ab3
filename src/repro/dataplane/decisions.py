"""What an edge switch answers for the data packets of one flow key.

Forwarding a run of packets (:meth:`~repro.dataplane.edge_switch.EdgeSwitch.classify_run`,
or :meth:`~repro.dataplane.edge_switch.EdgeSwitch.forward_key` for a run of
one) produces a :class:`RunVerdict` naming *which mechanism* handled them
(flow table, L-FIB, G-FIB, the controller, or a drop) and where copies were
sent.  The planes turn verdicts into controller workload, duplicate-delivery
and latency statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.packets import FlowKey
from repro.datastructures.flow_table import FlowRule


class ForwardingOutcome(enum.Enum):
    """How the packets of a flow key were handled by their ingress switch."""

    FLOW_TABLE_HIT = "flow_table_hit"
    LOCAL_DELIVERY = "local_delivery"
    INTRA_GROUP_FORWARD = "intra_group_forward"
    SENT_TO_CONTROLLER = "sent_to_controller"
    DROPPED_NO_RULE = "dropped_no_rule"


#: The outcomes as module constants for the per-packet and per-pair paths:
#: looking a member up on the enum class costs about as much as the L-FIB
#: lookup it sits next to.
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
