#!/usr/bin/env python3
"""A multi-tenant cloud scenario: VM migration, ARP handling and state dissemination.

Walks through the day-2 operations the paper's architecture is designed for:

1. provision a LazyCtrl deployment over a multi-tenant data center;
2. show how an intra-group flow is forwarded entirely in the data plane
   (L-FIB / G-FIB) while an inter-group flow costs one controller round trip;
3. migrate a virtual machine across groups and show the state dissemination
   (peer links, state link, C-LIB update) that keeps forwarding correct;
4. print the control-plane message accounting.

Run with::

    python examples/multi_tenant_datacenter.py
"""

from __future__ import annotations

from repro.common.formatting import format_table
from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.core.system import LazyCtrlSystem
from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter
from repro.traffic.flow import FlowRecord
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile


def describe(result) -> str:
    return (f"path={result.path.value}, controller involved={result.controller_involved}, "
            f"first packet {result.first_packet_latency_ms:.2f} ms")


def main() -> None:
    network = build_multi_tenant_datacenter(
        TopologyProfile(switch_count=24, host_count=360, seed=11, home_switches_per_tenant=2)
    )
    trace = RealisticTraceGenerator(
        network, RealisticTraceProfile(total_flows=10_000, seed=11)
    ).generate(name="ops-demo")

    config = LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=4, random_seed=11))
    system = LazyCtrlSystem(network, config=config, dynamic_grouping=True)
    grouping = system.install_initial_grouping(trace, warmup_end=3600.0)

    print(f"Data center: {network.describe()}")
    print(f"Grouping: {grouping.group_count()} local control groups, sizes {grouping.sizes()}\n")

    group_of = system.controller.group_assignment()
    hosts = network.hosts()

    # An intra-group flow: handled by the G-FIB without the controller.
    src = hosts[0]
    dst = next(
        h for h in hosts
        if h.switch_id != src.switch_id and group_of[h.switch_id] == group_of[src.switch_id]
    )
    result = system.handle_flow_arrival(
        FlowRecord(start_time=10.0, flow_id=1, src_host_id=src.host_id, dst_host_id=dst.host_id), now=10.0
    )
    print(f"Intra-group flow  {src.mac} -> {dst.mac}: {describe(result)}")

    # An inter-group flow: the controller installs an encapsulation rule.
    remote = next(h for h in hosts if group_of[h.switch_id] != group_of[src.switch_id])
    result = system.handle_flow_arrival(
        FlowRecord(start_time=11.0, flow_id=2, src_host_id=src.host_id, dst_host_id=remote.host_id), now=11.0
    )
    print(f"Inter-group flow  {src.mac} -> {remote.mac}: {describe(result)}")

    # Repeat of the same inter-group flow: hits the installed rule.
    result = system.handle_flow_arrival(
        FlowRecord(start_time=12.0, flow_id=3, src_host_id=src.host_id, dst_host_id=remote.host_id), now=12.0
    )
    print(f"Repeat of that flow: {describe(result)}\n")

    # Migrate the destination VM into the source's group and show that the
    # traffic becomes intra-group (invisible to the controller).
    target_switch = next(
        sid for sid in network.switch_ids()
        if group_of[sid] == group_of[src.switch_id] and sid != src.switch_id
    )
    print(f"Migrating VM {remote.mac} from switch {remote.switch_id} to switch {target_switch}...")
    system.disseminator.migrate_host(remote.host_id, target_switch)
    requests_before = system.controller.total_requests
    result = system.handle_flow_arrival(
        FlowRecord(start_time=20.0, flow_id=4, src_host_id=src.host_id, dst_host_id=remote.host_id), now=20.0
    )
    print(f"Same flow after migration: {describe(result)} "
          f"(controller requests unchanged: {system.controller.total_requests == requests_before})\n")

    stats = system.disseminator.stats
    print(format_table(
        ["Metric", "Value"],
        [
            ["Live dissemination events", stats.live_events],
            ["VM migrations", stats.migration_events],
            ["Peer-link messages", stats.peer_messages],
            ["State reports to controller", stats.state_reports],
            ["C-LIB entries updated", stats.controller_updates],
            ["Controller requests so far", system.controller.total_requests],
            ["Flow rules installed by controller", system.controller.flow_mods_sent],
        ],
        title="Control-plane accounting",
    ))


if __name__ == "__main__":
    main()
