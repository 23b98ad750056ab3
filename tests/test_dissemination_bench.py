"""Micro-benchmarks for group state dissemination, at the ledger's group size.

``pytest-benchmark`` times the two steps `churn-regroup` repeats most on a
group of 16 switches with 12 hosts each: a full G-FIB synchronization (what
every applied regrouping pays per group) and one live L-FIB update end to end
(relay to the peers, full state report, C-LIB merge — what each side of a
migration pays).  Like ``test_kernel_bench.py`` these are for profiling
regressions locally (``pytest tests/test_dissemination_bench.py
--benchmark-only``); in a plain test run each executes once as a smoke test.
"""

import pytest

from repro.common.addresses import MacAddress
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.partitioning.sgi import Grouping
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

MEMBERS = 16
HOSTS_PER_MEMBER = 12


@pytest.fixture()
def controller_and_group():
    """One provisioned group of 16 × 12 hosts under a controller."""
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=MEMBERS, host_count=MEMBERS * HOSTS_PER_MEMBER, seed=7)
    )
    controller = LazyCtrlController(network)
    for info in network.switches():
        controller.register_switch(
            LazyCtrlEdgeSwitch(
                info.switch_id, underlay_ip=info.underlay_ip, management_mac=info.management_mac
            )
        )
    controller.bootstrap_host_locations()
    controller.apply_grouping(Grouping(groups={0: frozenset(range(MEMBERS))}))
    return controller, controller.groups[0]


def test_group_sync_primitive(controller_and_group, benchmark):
    """Rebuild all 16 G-FIBs from the 16 L-FIBs: 16 summaries, 240 installs."""
    _, group = controller_and_group
    messages = benchmark(group.synchronize_gfibs)
    assert messages == MEMBERS * (MEMBERS - 1)
    assert all(switch.gfib.peer_count() == MEMBERS - 1 for switch in group.members())


def test_live_update_primitive(controller_and_group, benchmark):
    """One member's L-FIB changes (a VM comes or goes): relay, report, merge."""
    controller, group = controller_and_group
    member = group.members()[3]
    visitor = MacAddress.from_host_index(10_000)

    def live_update():
        # Toggle the visitor so every round disseminates a changed L-FIB.
        if not member.detach_host(visitor):
            member.attach_host(visitor, 99, 0)
        messages = group.propagate_lfib_update(member.switch_id)
        report = group.build_state_report()
        return messages, controller.receive_state_report(report)

    messages, _ = benchmark(live_update)
    # Source -> designated, then designated -> the 14 others (or 0 + 15).
    assert messages == MEMBERS - 1
    assert len(group.build_state_report().switch_lfibs) == MEMBERS
    peer = group.members()[4]
    assert (member.switch_id in peer.gfib.matching_peers(visitor)) == (visitor in member.lfib)
