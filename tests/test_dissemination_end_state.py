"""End state of L-FIB dissemination: one shared summary against one build per holder.

A group disseminates an L-FIB by building its Bloom summary and its wire
tuple once and handing them to every member, relay and report.  The form it
replaced built a filter per receiving member and sent a dict of ``FibEntry``
through the state report; that form is kept here, written against the public
run-of-one calls (``GroupFib.install_peer(peer, macs)``, the L-FIB's entries),
as the reference.  A churn-migration-shaped replay stopped mid-trace must
leave the same switches, C-LIB and counters under both, and a migration must
leave no stale summary behind.
"""

import dataclasses

import pytest

from equivalence import build_spec, plane_state, replay_plane
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.common.diff import payload_drift
from repro.controlplane.group import LocalControlGroup
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.controlplane.messages import GroupStateReportMessage
from repro.core.presets import default_grouping_config
from repro.core.system import LazyCtrlSystem
from repro.datastructures.fib import FibEntry, GroupFib
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

# -- the per-holder form, as the reference --------------------------------------------


def _wire(snapshot):
    return tuple((mac, entry.port, entry.tenant_id) for mac, entry in sorted(snapshot.items()))


def _snapshot(lfib):
    return {entry.mac: entry for entry in lfib}


def per_holder_synchronize_gfibs(self):
    snapshots = {switch_id: switch.local_hosts() for switch_id, switch in self._members.items()}
    messages = 0
    for switch_id, switch in self._members.items():
        switch.gfib.clear()
        for peer_id, macs in snapshots.items():
            if peer_id == switch_id:
                continue
            switch.gfib.install_peer(peer_id, macs)
            messages += 1
    self.peer_messages_sent += messages
    return messages


def per_holder_propagate_lfib_update(self, switch_id):
    macs = list(_snapshot(self.member(switch_id).lfib))
    messages = 1
    for peer_id, peer in self._members.items():
        if peer_id == switch_id:
            continue
        peer.gfib.install_peer(switch_id, macs)
        if peer_id != self.designated_switch_id:
            messages += 1
    self.peer_messages_sent += messages
    return messages


def per_holder_build_state_report(self, *, only_changes=False):
    self.state_reports_sent += 1
    if only_changes:
        snapshots = {}
        reported = self._reported_lfib_versions
        for switch_id, switch in self._members.items():
            version = switch.lfib.version
            if reported.get(switch_id) != version:
                snapshots[switch_id] = _snapshot(switch.lfib)
                reported[switch_id] = version
    else:
        snapshots = {sid: _snapshot(switch.lfib) for sid, switch in self._members.items()}
    return GroupStateReportMessage(
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
SPEC = build_spec(
    "churn-migration",
    flows=6_000,
    topology=TopologyProfile(switch_count=96, host_count=1200, seed=2015),
    systems=("lazyctrl-dynamic",),
    config=default_grouping_config(96),
)

#: Mid-morning, between two periodic ticks: a dozen regroupings and ~120 host
#: moves in, with L-FIB changes the next periodic report has yet to carry.
STOP_AT = 6.4 * 3600.0


def replay_until_stop():
    return replay_plane(SPEC, "lazyctrl-dynamic", end=STOP_AT)


class TestMidTraceEndState:
    def test_shared_summaries_leave_what_per_holder_builds_leave(self, per_holder_form):
        reference_run, plane = replay_until_stop()
        reference = plane_state(plane, STOP_AT)
        per_holder_form.undo()
        run, plane = replay_until_stop()
        state = plane_state(plane, STOP_AT)

        # The run is the one the issue describes, and it exercised both paths.
        assert plane.controller.regroupings_applied >= 4  # the initial grouping + 3
        assert run.churn.migrations > 20 and run.churn.drift_host_moves > 20

        assert payload_drift(reference_run.to_dict(), run.to_dict()) == []
        for section in state:
            assert state[section] == reference[section], section


class TestLinkTraffic:
    """What the control, state and peer links carried on the same replay.

    The counters are what the channel objects used to count: one group
    configuration per member per applied grouping (control links), one state
    report per group per periodic sync plus one per live update (state
    links), and each live update's message and relays (peer links).
    """

    def test_counts_are_pinned(self, monkeypatch):
        reports = []
        build_state_report = LocalControlGroup.build_state_report

        def counted(self, **options):
            reports.append(options.get("only_changes", False))
            return build_state_report(self, **options)

        monkeypatch.setattr(LocalControlGroup, "build_state_report", counted)
        _, plane = replay_until_stop()
        controller = plane.controller
        assert (controller.regroupings_applied, controller.group_config_messages) == (12, 1152)
        assert (reports.count(True), reports.count(False)) == (1152, 248)
        assert dataclasses.asdict(plane.disseminator.stats) == {
            "live_events": 124,
            "migration_events": 124,
            "departure_events": 0,
            "peer_messages": 3748,
            "state_reports": 248,
            "controller_updates": 248,
        }
        # The groups of the last regrouping: one full synchronization each.
        assert {
            group_id: (group.peer_messages_sent, group.state_reports_sent)
            for group_id, group in controller.groups.items()
        } == {group_id: (240, 0) for group_id in range(6)}


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
    grouping = Grouping(groups={0: frozenset({0, 1, 2}), 1: frozenset({3, 4, 5})})
    system.controller.grouping_manager.current_grouping = grouping
    system.controller.apply_grouping(grouping)
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
