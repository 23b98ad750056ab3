"""Control-plane messages.

The hybrid control model exchanges a small set of message types over three
kinds of logical channels (paper §III-B.3).  Messages are plain immutable
records; the channels count and "deliver" them, and the controller / group
logic reacts.  Modelling messages explicitly (rather than calling methods
directly) lets the evaluation count control-plane overhead and lets the
failover machinery reason about which messages were lost.

Only the messages the simulation sends are records: L-FIB updates, state
reports and group configuration.  A ``Packet_In`` is the controller's
``handle_packet_in`` on a flow key, and its ``Flow_Mod`` the rule that call
installs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Tuple

from repro.datastructures.fib import WireEntries

_message_counter = itertools.count()


class MessageType(enum.Enum):
    """All control-plane message types used by LazyCtrl."""

    LFIB_UPDATE = "lfib_update"
    GROUP_STATE_REPORT = "group_state_report"
    GROUP_CONFIG = "group_config"


@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Base class: every message has an id, a type and a (source, destination)."""

    message_type: MessageType
    source: str
    destination: str
    timestamp: float = 0.0
    message_id: int = field(default_factory=lambda: next(_message_counter))


@dataclass(frozen=True, slots=True)
class LfibUpdateMessage(ControlMessage):
    """An edge switch pushing its updated L-FIB to the designated switch (peer link)."""

    switch_id: int = -1
    entries: WireEntries = ()

    @classmethod
    def create(cls, switch_id: int, entries: WireEntries, destination: str, timestamp: float) -> "LfibUpdateMessage":
        """Build an L-FIB update carrying the table's wire tuple (``LocalFib.wire_entries``)."""
        return cls(
            message_type=MessageType.LFIB_UPDATE,
            source=f"switch:{switch_id}",
            destination=destination,
            timestamp=timestamp,
            switch_id=switch_id,
            entries=entries,
        )


@dataclass(frozen=True, slots=True)
class GroupStateReportMessage(ControlMessage):
    """The designated switch's aggregated group state pushed over the state link."""

    group_id: int = -1
    switch_lfibs: Tuple[Tuple[int, WireEntries], ...] = ()

    @classmethod
    def create(
        cls,
        group_id: int,
        designated_switch_id: int,
        switch_lfibs: Mapping[int, WireEntries],
        timestamp: float,
    ) -> "GroupStateReportMessage":
        """Build a state report aggregating the reported members' L-FIB wire tuples."""
        return cls(
            message_type=MessageType.GROUP_STATE_REPORT,
            source=f"switch:{designated_switch_id}",
            destination="controller",
            timestamp=timestamp,
            group_id=group_id,
            switch_lfibs=tuple(sorted(switch_lfibs.items())),
        )


@dataclass(frozen=True, slots=True)
class GroupConfigMessage(ControlMessage):
    """Controller-to-switch group configuration (membership, designated, ring neighbours)."""

    group_id: int = -1
    member_switch_ids: Tuple[int, ...] = ()
    designated_switch_id: int = -1
    backup_switch_ids: Tuple[int, ...] = ()
    ring_predecessor: int = -1
    ring_successor: int = -1

    @classmethod
    def create(
        cls,
        *,
        group_id: int,
        target_switch_id: int,
        member_switch_ids: Tuple[int, ...],
        designated_switch_id: int,
        backup_switch_ids: Tuple[int, ...],
        ring_predecessor: int,
        ring_successor: int,
        timestamp: float,
    ) -> "GroupConfigMessage":
        """Build the configuration message delivered to one member switch."""
        return cls(
            message_type=MessageType.GROUP_CONFIG,
            source="controller",
            destination=f"switch:{target_switch_id}",
            timestamp=timestamp,
            group_id=group_id,
            member_switch_ids=member_switch_ids,
            designated_switch_id=designated_switch_id,
            backup_switch_ids=backup_switch_ids,
            ring_predecessor=ring_predecessor,
            ring_successor=ring_successor,
        )
