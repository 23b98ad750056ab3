"""Unit tests for Local Control Groups."""

import random

import pytest

from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig
from repro.common.errors import ConfigurationError, ControlPlaneError
from repro.controlplane.group import LocalControlGroup
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch


def make_switches(count: int, first_id: int = 0):
    switches = []
    for index in range(count):
        switch_id = first_id + index
        switches.append(
            LazyCtrlEdgeSwitch(
                switch_id,
                management_mac=MacAddress.from_switch_index(switch_id),
            )
        )
    return switches


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


class TestGroupConstruction:
    def test_members_join_group(self):
        switches = make_switches(4)
        group = LocalControlGroup(7, switches)
        assert all(s.group_id == 7 for s in switches)
        assert group.member_ids() == [0, 1, 2, 3]
        assert len(group) == 4

    def test_designated_switch_selected_and_flagged(self):
        switches = make_switches(5)
        group = LocalControlGroup(1, switches, rng=random.Random(3))
        designated = group.member(group.designated_switch_id)
        assert designated.is_designated
        assert sum(1 for s in switches if s.is_designated) == 1

    def test_backups_selected(self):
        switches = make_switches(5)
        group = LocalControlGroup(1, switches, backup_count=2, rng=random.Random(3))
        assert len(group.backup_switch_ids) == 2
        assert group.designated_switch_id not in group.backup_switch_ids

    def test_empty_group_rejected(self):
        with pytest.raises(ControlPlaneError):
            LocalControlGroup(1, [])

    def test_duplicate_member_rejected(self):
        switch = make_switches(1)[0]
        with pytest.raises(ControlPlaneError):
            LocalControlGroup(1, [switch, switch])

    def test_members_of_mixed_bloom_geometry_rejected(self):
        """A member's summary is installed as built at every other member."""
        switches = make_switches(2)
        switches.append(
            LazyCtrlEdgeSwitch(
                2,
                management_mac=MacAddress.from_switch_index(2),
                bloom_config=BloomFilterConfig(size_bits=64, hash_count=2),
            )
        )
        with pytest.raises(ConfigurationError, match="geometry"):
            LocalControlGroup(1, switches)
        assert all(switch.group_id is None for switch in switches)

    def test_member_lookup(self):
        switches = make_switches(3)
        group = LocalControlGroup(1, switches)
        assert group.member(1) is switches[1]
        assert 2 in group and 99 not in group
        with pytest.raises(ControlPlaneError):
            group.member(99)


class TestRing:
    def test_ring_ordered_by_management_mac(self):
        switches = make_switches(5)
        group = LocalControlGroup(1, switches)
        # Management MACs are ordered by switch index, so the ring order is
        # simply ascending switch ids.
        assert group.ring_order() == [0, 1, 2, 3, 4]

    def test_ring_neighbors_wrap_around(self):
        group = LocalControlGroup(1, make_switches(4))
        neighbors = group.ring_neighbors(0)
        assert neighbors.predecessor == 3
        assert neighbors.successor == 1

    def test_ring_neighbors_unknown_switch(self):
        group = LocalControlGroup(1, make_switches(3))
        with pytest.raises(ControlPlaneError):
            group.ring_neighbors(42)

    def test_single_member_ring_points_to_itself(self):
        group = LocalControlGroup(1, make_switches(1))
        neighbors = group.ring_neighbors(0)
        assert neighbors.predecessor == 0 and neighbors.successor == 0


class TestDesignatedFailover:
    def test_promote_backup(self):
        switches = make_switches(4)
        group = LocalControlGroup(1, switches, backup_count=1, rng=random.Random(0))
        old = group.designated_switch_id
        group.member(old).failed = True
        new = group.promote_backup()
        assert new != old
        assert group.member(group.designated_switch_id).is_designated
        assert not group.member(old).is_designated

    def test_promote_without_backups_picks_healthy_member(self):
        switches = make_switches(3)
        group = LocalControlGroup(1, switches, backup_count=0, rng=random.Random(0))
        group.member(group.designated_switch_id).failed = True
        new = group.promote_backup()
        assert not group.member(new).failed

    def test_promote_fails_when_everything_is_down(self):
        switches = make_switches(2)
        group = LocalControlGroup(1, switches, backup_count=0)
        for switch in switches:
            switch.failed = True
        with pytest.raises(ControlPlaneError):
            group.promote_backup()


class TestStateSynchronization:
    def test_synchronize_gfibs_installs_all_peers(self):
        switches = make_switches(3)
        switches[0].attach_host(mac(1), 1, 0)
        switches[1].attach_host(mac(2), 1, 0)
        switches[2].attach_host(mac(3), 1, 0)
        group = LocalControlGroup(1, switches)
        messages = group.synchronize_gfibs()
        assert messages == 3 * 2
        # Every switch can now resolve every other switch's host.
        assert switches[0].gfib.query(mac(2)) == (1,)
        assert switches[2].gfib.query(mac(1)) == (0,)
        # One summary per member, held by each of the two others.
        assert [switch.gfib.summaries_built for switch in switches] == [1, 1, 1]
        assert [switch.gfib.peer_installs for switch in switches] == [2, 2, 2]

    def test_propagate_lfib_update_reaches_all_members(self):
        switches = make_switches(4)
        group = LocalControlGroup(1, switches, rng=random.Random(1))
        group.synchronize_gfibs()
        switches[2].attach_host(mac(42), 1, 0)
        group.propagate_lfib_update(2)
        for index, switch in enumerate(switches):
            if index != 2:
                assert 2 in switch.gfib.query(mac(42))
        # The update was summarized once, by its source, for the three others.
        assert [switch.gfib.summaries_built for switch in switches] == [1, 1, 2, 1]
        assert sum(switch.gfib.peer_installs for switch in switches) == 4 * 3 + 3

    def test_an_update_is_one_message_plus_one_relay_per_other_member(self):
        switches = make_switches(4)
        group = LocalControlGroup(1, switches, rng=random.Random(1))
        designated = group.designated_switch_id
        other = next(switch_id for switch_id in group.member_ids() if switch_id != designated)
        # Source -> designated, then a relay to each member that is neither.
        assert group.propagate_lfib_update(other) == 3
        # The designated switch's own update still counts once, then relays to all three.
        assert group.propagate_lfib_update(designated) == 4
        assert group.peer_messages_sent == 7
        assert group.synchronize_gfibs() == 12
        assert group.peer_messages_sent == 19

    def test_propagate_unknown_member_rejected(self):
        group = LocalControlGroup(1, make_switches(2))
        with pytest.raises(ControlPlaneError):
            group.propagate_lfib_update(99)

    def test_state_report_contains_all_lfibs(self):
        switches = make_switches(3)
        switches[0].attach_host(mac(1), 1, 5)
        group = LocalControlGroup(1, switches)
        report = group.build_state_report()
        switch_ids = [switch_id for switch_id, _ in report.switch_lfibs]
        assert switch_ids == [0, 1, 2]
        assert group.state_reports_sent == 1
        # A report carries each member's wire tuple itself, re-derived only on change.
        assert report.switch_lfibs[0][1] is switches[0].lfib.wire_entries() == ((mac(1), 1, 5),)
        switches[1].attach_host(mac(2), 1, 5)
        later = group.build_state_report()
        assert later.switch_lfibs[0][1] is report.switch_lfibs[0][1]
        assert later.switch_lfibs[1][1] == ((mac(2), 1, 5),)

    def test_repr(self):
        assert "LocalControlGroup" in repr(LocalControlGroup(1, make_switches(2)))
