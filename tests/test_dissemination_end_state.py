"""End state of L-FIB dissemination: one shared summary against one build per holder.

A group disseminates an L-FIB by building its Bloom summary and its wire
tuple once and handing them to every member, relay and report.  The form it
replaced built a filter per receiving member, sorted the snapshot per relay and
sent a dict of ``FibEntry`` through the state report; that form is kept here,
written against the public run-of-one calls (``install_peer_lfib(peer, macs)``,
``LocalFib.snapshot()``), as the reference.  A churn-migration-shaped replay
stopped mid-trace must leave the same switches, C-LIB, counters and channel
bytes under both, and a migration must leave no stale summary behind.
"""

import dataclasses

import pytest

from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.controlplane.channels import ChannelType
from repro.controlplane.group import LocalControlGroup
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.controlplane.messages import GroupStateReportMessage, LfibUpdateMessage, MessageType
from repro.core.presets import default_grouping_config, get_preset
from repro.core.runner import ScenarioRunner
from repro.core.system import LazyCtrlSystem
from repro.datastructures.fib import FibEntry, GroupFib
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

# -- the per-holder form, as the reference --------------------------------------------


def _wire(snapshot):
    return tuple((mac, entry.port, entry.tenant_id) for mac, entry in sorted(snapshot.items()))


def _lfib_update(switch_id, snapshot, destination, timestamp):
    return LfibUpdateMessage(
        message_type=MessageType.LFIB_UPDATE,
        source=f"switch:{switch_id}",
        destination=destination,
        timestamp=timestamp,
        switch_id=switch_id,
        entries=_wire(snapshot),
    )


def per_holder_synchronize_gfibs(self):
    snapshots = {switch_id: switch.local_hosts() for switch_id, switch in self._members.items()}
    messages = 0
    for switch_id, switch in self._members.items():
        switch.gfib.clear()
        for peer_id, macs in snapshots.items():
            if peer_id == switch_id:
                continue
            switch.install_peer_lfib(peer_id, macs)
            messages += 1
    self.peer_messages_sent += messages
    return messages


def per_holder_propagate_lfib_update(self, switch_id, *, timestamp=0.0):
    snapshot = self.member(switch_id).lfib.snapshot()
    designated = self.designated_switch
    size_bytes = 64 + 16 * len(snapshot)
    messages = 0
    channel = self._channels.get_or_create(
        ChannelType.PEER_LINK, f"switch:{switch_id}", f"switch:{designated.switch_id}"
    )
    update = _lfib_update(switch_id, snapshot, f"switch:{designated.switch_id}", timestamp)
    if channel.deliver(update, size_bytes=size_bytes):
        messages += 1
    macs = list(snapshot)
    for peer_id, peer in self._members.items():
        if peer_id == switch_id:
            continue
        peer.install_peer_lfib(switch_id, macs)
        if peer_id == designated.switch_id:
            continue
        relay_channel = self._channels.get_or_create(
            ChannelType.PEER_LINK, f"switch:{designated.switch_id}", f"switch:{peer_id}"
        )
        relay = _lfib_update(designated.switch_id, snapshot, f"switch:{peer_id}", timestamp)
        if relay_channel.deliver(relay, size_bytes=size_bytes):
            messages += 1
    self.peer_messages_sent += messages
    return messages


def per_holder_build_state_report(self, *, timestamp=0.0, only_changes=False):
    self.state_reports_sent += 1
    if only_changes:
        snapshots = {}
        reported = self._reported_lfib_versions
        for switch_id, switch in self._members.items():
            version = switch.lfib.version
            if reported.get(switch_id) != version:
                snapshots[switch_id] = switch.lfib.snapshot()
                reported[switch_id] = version
    else:
        snapshots = {sid: switch.lfib.snapshot() for sid, switch in self._members.items()}
    return GroupStateReportMessage(
        message_type=MessageType.GROUP_STATE_REPORT,
        source=f"switch:{self.designated_switch_id}",
        destination="controller",
        timestamp=timestamp,
        group_id=self.group_id,
        switch_lfibs=tuple((sid, _wire(snapshot)) for sid, snapshot in sorted(snapshots.items())),
    )


def per_holder_receive_state_report(self, report):
    clib = self.clib
    total = 0
    for switch_id, entries in report.switch_lfibs:
        snapshot = {mac: FibEntry(mac=mac, port=port, tenant_id=tenant) for mac, port, tenant in entries}
        changed = 0
        for mac, entry in snapshot.items():
            if clib._locations.get(mac) != switch_id or clib._tenants.get(mac) != entry.tenant_id:
                clib._locations[mac] = switch_id
                clib._tenants[mac] = entry.tenant_id
                changed += 1
        if changed:
            clib._version += 1
        total += changed
        for _mac, _port, tenant_id in entries:
            self.tenant_manager.note_host_location(tenant_id, switch_id)
    return total


@pytest.fixture()
def per_holder_form(monkeypatch):
    monkeypatch.setattr(LocalControlGroup, "synchronize_gfibs", per_holder_synchronize_gfibs)
    monkeypatch.setattr(LocalControlGroup, "propagate_lfib_update", per_holder_propagate_lfib_update)
    monkeypatch.setattr(LocalControlGroup, "build_state_report", per_holder_build_state_report)
    monkeypatch.setattr(LazyCtrlController, "receive_state_report", per_holder_receive_state_report)
    return monkeypatch


# -- a churn-migration-shaped replay, stopped mid-trace ----------------------------------

#: ``churn-migration`` at the ledger's ``churn-regroup`` topology, fewer flows.
(_PRESET,) = get_preset("churn-migration").specs()
SPEC = dataclasses.replace(
    _PRESET,
    topology=TopologyProfile(switch_count=96, host_count=1200, seed=2015),
    traffic=_PRESET.traffic.with_params(total_flows=6_000),
    systems=("lazyctrl-dynamic",),
    config=default_grouping_config(96),
)

#: Mid-morning, between two periodic ticks: a dozen regroupings and ~120 host
#: moves in, with L-FIB changes the next periodic report has yet to carry.
STOP_AT = 6.4 * 3600.0


def replay_until_stop():
    trace = SPEC.build_trace(SPEC.build_network())
    return ScenarioRunner()._replay_system(
        "lazyctrl-dynamic",
        trace,
        schedule=SPEC.schedule,
        config=SPEC.config,
        churn=SPEC.churn,
        end=STOP_AT,
    )


def end_state(run, plane):
    controller = plane.controller
    macs = [host.mac for host in plane.network.hosts()]
    channels = controller._channels
    return {
        "run": run.to_dict(),
        "gfib": {
            switch.switch_id: (
                sorted(switch.gfib.peers()),
                switch.gfib.version,
                switch.gfib.storage_bytes(),
                [switch.gfib.matching_peers(mac) for mac in macs],
            )
            for switch in plane.switches()
        },
        "clib": (
            controller.clib.version,
            len(controller.clib),
            [(controller.clib.locate(mac), controller.clib.tenant_of(mac)) for mac in macs],
        ),
        "tenants": {
            tenant: sorted(controller.tenant_manager.switches_of(tenant))
            for tenant in controller.tenant_manager.tenants()
        },
        "dissemination": dataclasses.asdict(plane.disseminator.stats),
        "groups": {
            group_id: (group.member_ids(), group.peer_messages_sent, group.state_reports_sent)
            for group_id, group in controller.groups.items()
        },
        "links": {
            kind.value: [
                (channel.endpoint_a, channel.endpoint_b, dataclasses.asdict(channel.stats))
                for channel in channels.channels(kind)
            ]
            for kind in (ChannelType.PEER_LINK, ChannelType.STATE_LINK)
        },
    }


class TestMidTraceEndState:
    def test_shared_summaries_leave_what_per_holder_builds_leave(self, per_holder_form):
        reference = end_state(*replay_until_stop())
        per_holder_form.undo()
        run, plane = replay_until_stop()
        state = end_state(run, plane)

        # The run is the one the issue describes, and it exercised both paths.
        assert plane.controller.regroupings_applied >= 4  # the initial grouping + 3
        assert run.churn.migrations > 20 and run.churn.drift_host_moves > 20

        for section in state:
            assert state[section] == reference[section], section


# -- no stale summary after a migration ---------------------------------------------------


@pytest.fixture()
def exact_system():
    """Two groups of three; every G-FIB keeps its exact shadow sets."""
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=6, host_count=60, seed=9, home_switches_per_tenant=2)
    )
    system = LazyCtrlSystem(
        network,
        config=LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=9)),
    )
    for switch in system.switches():
        switch.gfib = GroupFib(switch.gfib.config, track_exact=True)
    system.install_grouping(Grouping(groups={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})}))
    return system


class TestNoStaleSummary:
    @pytest.mark.parametrize("target, target_peers", [(2, (0, 1)), (4, (3, 5))], ids=["same-group", "cross-group"])
    def test_old_peers_forget_and_new_peers_learn(self, exact_system, target, target_peers):
        system = exact_system
        host = system.network.hosts_on_switch(0)[0]
        stayer = system.network.hosts_on_switch(0)[1]
        for peer in (1, 2):
            assert system.switch(peer).gfib.query_exact(host.mac) == (0,)
        system.disseminator.migrate_host(host.host_id, target)

        for peer in (1, 2):
            gfib = system.switch(peer).gfib
            if peer != target:
                assert 0 not in gfib.query_exact(host.mac)
                # The Bloom side agrees wherever it is not a false positive.
                assert set(gfib.matching_peers(host.mac)) >= set(gfib.query_exact(host.mac))
            # What did not move is still advertised by the old switch.
            assert 0 in gfib.query_exact(stayer.mac) and 0 in gfib.matching_peers(stayer.mac)
        for peer in target_peers:
            gfib = system.switch(peer).gfib
            assert gfib.query_exact(host.mac) == (target,)
            assert target in gfib.matching_peers(host.mac)
        assert system.controller.clib.locate(host.mac) == target
