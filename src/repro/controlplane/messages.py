"""The one control-plane message a receiver reads: the group state report.

Paper §III-B.3 names three logical channel types — control links
(controller ↔ switch), state links (designated switch → controller) and peer
links (switch ↔ switch inside a group).  They are counted, not modelled as
objects: ``LocalControlGroup.peer_messages_sent`` and ``state_reports_sent``
and ``LazyCtrlController.group_config_messages`` are the traffic on them.
The only message built as a record is the state report, because the
controller reads it: it carries the members' L-FIB wire tuples to
``LazyCtrlController.receive_state_report``.  A ``Packet_In`` is the
controller's ``handle_packet_in`` on a flow key, and its ``Flow_Mod`` the
rule that call installs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.datastructures.fib import WireEntries


@dataclass(frozen=True, slots=True)
class GroupStateReportMessage:
    """The designated switch's aggregated group state, pushed over the state link."""

    switch_lfibs: Tuple[Tuple[int, WireEntries], ...] = ()

    @classmethod
    def create(cls, switch_lfibs: Mapping[int, WireEntries]) -> "GroupStateReportMessage":
        """Build a state report of the reported members' L-FIB wire tuples, by switch id."""
        return cls(switch_lfibs=tuple(sorted(switch_lfibs.items())))
