"""Local Control Groups (LCGs).

A Local Control Group is a set of edge switches grouped by communication
affinity that carries out distributed control among themselves (paper
§III-B.2).  This module implements the group-side mechanics:

* designated-switch (and backup) selection,
* the logical failure-detection ring ordered by management MAC (§III-E.1),
* group-wide G-FIB synchronization from member L-FIBs,
* relaying of member L-FIB updates via the designated switch (peer links)
  and aggregation into state reports for the controller (state link).

An L-FIB travels in two derived forms, each produced once per dissemination:
the Bloom summary its switch builds and every other member installs, and the
wire tuple (``LocalFib.wire_entries``) every relay and report carries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError, ControlPlaneError
from repro.controlplane.channels import ChannelRegistry, ChannelType
from repro.controlplane.messages import GroupStateReportMessage, LfibUpdateMessage
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch


@dataclass(frozen=True, slots=True)
class RingNeighbors:
    """The predecessor and successor of a switch on the failure-detection wheel."""

    predecessor: int
    successor: int


class LocalControlGroup:
    """A group of edge switches performing distributed intra-group control."""

    def __init__(
        self,
        group_id: int,
        members: Sequence[LazyCtrlEdgeSwitch],
        *,
        backup_count: int = 1,
        rng: Optional[random.Random] = None,
        channels: Optional[ChannelRegistry] = None,
    ) -> None:
        if not members:
            raise ControlPlaneError("a local control group needs at least one member switch")
        self.group_id = group_id
        self._members: Dict[int, LazyCtrlEdgeSwitch] = {switch.switch_id: switch for switch in members}
        if len(self._members) != len(members):
            raise ControlPlaneError("duplicate switch in group membership")
        # A member's summary is installed, as built, in every other member's G-FIB.
        if len({switch.gfib.config for switch in members}) != 1:
            raise ConfigurationError(f"the members of group {group_id} do not share one Bloom-filter geometry")
        self._rng = rng or random.Random(group_id)
        self._channels = channels or ChannelRegistry()
        self.designated_switch_id: int = -1
        self.backup_switch_ids: List[int] = []
        self._ring_order: List[int] = []
        self.peer_messages_sent = 0
        self.state_reports_sent = 0
        # L-FIB versions as of the last state report, per member; lets the
        # designated switch skip re-serializing unchanged tables.
        self._reported_lfib_versions: Dict[int, int] = {}

        self._select_designated(backup_count)
        self._build_ring()
        for switch in self._members.values():
            switch.join_group(group_id, designated=(switch.switch_id == self.designated_switch_id))

    # -- membership ---------------------------------------------------------

    def member_ids(self) -> List[int]:
        """Identifiers of all member switches."""
        return sorted(self._members)

    def members(self) -> List[LazyCtrlEdgeSwitch]:
        """All member switch objects, ordered by identifier."""
        return [self._members[switch_id] for switch_id in sorted(self._members)]

    def member(self, switch_id: int) -> LazyCtrlEdgeSwitch:
        """Return the member with ``switch_id`` (raises when not a member)."""
        try:
            return self._members[switch_id]
        except KeyError as exc:
            raise ControlPlaneError(f"switch {switch_id} is not a member of group {self.group_id}") from exc

    def __contains__(self, switch_id: int) -> bool:
        return switch_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    @property
    def designated_switch(self) -> LazyCtrlEdgeSwitch:
        """The current designated switch object."""
        return self._members[self.designated_switch_id]

    # -- designated switch & ring ---------------------------------------------

    def _select_designated(self, backup_count: int) -> None:
        """Randomly select the designated switch and its backups (paper §III-B.2)."""
        candidates = sorted(self._members)
        self._rng.shuffle(candidates)
        self.designated_switch_id = candidates[0]
        self.backup_switch_ids = candidates[1 : 1 + backup_count]

    def _build_ring(self) -> None:
        """Order members by management MAC to form the failure-detection wheel."""
        self._ring_order = sorted(self._members, key=lambda sid: self._members[sid].management_mac)

    def ring_order(self) -> List[int]:
        """Member switch ids in wheel order."""
        return list(self._ring_order)

    def ring_neighbors(self, switch_id: int) -> RingNeighbors:
        """Predecessor and successor of ``switch_id`` on the wheel."""
        if switch_id not in self._members:
            raise ControlPlaneError(f"switch {switch_id} is not a member of group {self.group_id}")
        index = self._ring_order.index(switch_id)
        size = len(self._ring_order)
        return RingNeighbors(
            predecessor=self._ring_order[(index - 1) % size],
            successor=self._ring_order[(index + 1) % size],
        )

    def promote_backup(self) -> int:
        """Replace a failed designated switch with the first healthy backup.

        Returns the new designated switch id.  When no backup is available a
        random healthy member is promoted (the controller re-provisions
        backups afterwards).
        """
        healthy_backups = [sid for sid in self.backup_switch_ids if not self._members[sid].failed]
        if healthy_backups:
            new_designated = healthy_backups[0]
            self.backup_switch_ids.remove(new_designated)
        else:
            healthy = [sid for sid in self._members if not self._members[sid].failed]
            if not healthy:
                raise ControlPlaneError(f"group {self.group_id} has no healthy switch to promote")
            new_designated = self._rng.choice(healthy)
        old = self.designated_switch_id
        if old in self._members:
            self._members[old].is_designated = False
        self.designated_switch_id = new_designated
        self._members[new_designated].is_designated = True
        return new_designated

    # -- state synchronization --------------------------------------------------

    def synchronize_gfibs(self) -> int:
        """Rebuild every member's G-FIB from the L-FIBs of all other members.

        Each member summarizes its L-FIB once; every other member installs
        that summary.  Returns the number of peer-link messages this full
        synchronization generates (each member receives the L-FIBs of every other
        member via the designated switch, i.e. unicast dissemination, §III-B.3).
        """
        summaries = {
            switch_id: (switch.summarize_lfib(), switch.local_hosts())
            for switch_id, switch in self._members.items()
        }
        messages = 0
        for switch_id, switch in self._members.items():
            switch.gfib.clear()
            for peer_id, (summary, macs) in summaries.items():
                if peer_id == switch_id:
                    continue
                switch.install_peer_summary(peer_id, summary, macs)
                messages += 1
        self.peer_messages_sent += messages
        return messages

    def propagate_lfib_update(self, switch_id: int, *, timestamp: float = 0.0) -> int:
        """Handle an L-FIB change at one member (asynchronous dissemination, §III-D.3).

        The updating switch sends its L-FIB to the designated switch via the
        peer link; the designated switch relays it to every other member
        (updating their G-FIB entries for the updating switch) and the caller
        is expected to follow up with :meth:`build_state_report` towards the
        controller.  One summary and one wire tuple serve every member and
        relay.  Returns the number of peer-link messages generated.
        """
        source = self.member(switch_id)
        entries = source.lfib.wire_entries()
        size_bytes = 64 + 16 * len(entries)
        designated = self.designated_switch
        messages = 0

        # Source -> designated over the peer link.
        channel = self._channels.get_or_create(
            ChannelType.PEER_LINK, f"switch:{switch_id}", f"switch:{designated.switch_id}"
        )
        update = LfibUpdateMessage.create(switch_id, entries, f"switch:{designated.switch_id}", timestamp)
        if channel.deliver(update, size_bytes=size_bytes):
            messages += 1

        # Designated -> every other member (multiple unicasts).
        summary, macs = source.summarize_lfib(), source.local_hosts()
        for peer_id, peer in self._members.items():
            if peer_id == switch_id:
                continue
            peer.install_peer_summary(switch_id, summary, macs)
            if peer_id == designated.switch_id:
                continue
            relay_channel = self._channels.get_or_create(
                ChannelType.PEER_LINK, f"switch:{designated.switch_id}", f"switch:{peer_id}"
            )
            relay = LfibUpdateMessage.create(
                designated.switch_id, entries, f"switch:{peer_id}", timestamp
            )
            if relay_channel.deliver(relay, size_bytes=size_bytes):
                messages += 1
        self.peer_messages_sent += messages
        return messages

    def build_state_report(self, *, timestamp: float = 0.0, only_changes: bool = False) -> GroupStateReportMessage:
        """Aggregate member L-FIBs into a state report for the controller.

        With ``only_changes=True`` the report carries only the L-FIBs whose
        version changed since the previous ``only_changes`` report — the
        asynchronous-dissemination optimization the periodic sync uses.  The
        controller's C-LIB merge is idempotent, so skipping unchanged tables
        yields the identical C-LIB at a fraction of the serialization cost.
        A report with no changed members is still sent (it doubles as the
        state-link keep-alive).
        """
        self.state_reports_sent += 1
        if only_changes:
            snapshots = {}
            reported = self._reported_lfib_versions
            for switch_id, switch in self._members.items():
                version = switch.lfib.version
                if reported.get(switch_id) != version:
                    snapshots[switch_id] = switch.lfib.wire_entries()
                    reported[switch_id] = version
        else:
            snapshots = {switch_id: switch.lfib.wire_entries() for switch_id, switch in self._members.items()}
        return GroupStateReportMessage.create(
            self.group_id,
            self.designated_switch_id,
            snapshots,
            timestamp,
        )

    # -- bookkeeping --------------------------------------------------------------

    def storage_bytes(self) -> int:
        """Total G-FIB storage across all members (the §V-D overhead metric)."""
        return sum(switch.storage_bytes() for switch in self._members.values())

    def __repr__(self) -> str:
        return (
            f"LocalControlGroup(id={self.group_id}, members={len(self._members)}, "
            f"designated={self.designated_switch_id})"
        )
