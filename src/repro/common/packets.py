"""Flow identity for the LazyCtrl data plane.

The replay walks flows, not packet objects: a flow's packets are named by
their :class:`FlowKey`, and every switch answers for a run of them at once
(:meth:`~repro.dataplane.edge_switch.EdgeSwitch.classify_run`).  A replayed
flow's first packet weighs :data:`DATA_PACKET_BYTES`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.addresses import MacAddress


#: Size of a full data packet; what a replayed flow's first packet weighs.
DATA_PACKET_BYTES = 1500


class FlowKey(NamedTuple):
    """Identity of a flow: the (source MAC, destination MAC, tenant) triple.

    The paper's traces are switch-to-switch/host-to-host; we keep the tenant
    in the key because inter-tenant communication is what the controller
    must always see.  A key is a tuple of three integers, so it hashes,
    compares and orders as ``(int(src_mac), int(dst_mac), tenant_id)`` does,
    in C, on every flow-table probe.
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    tenant_id: int
