"""Flow identity for the LazyCtrl data plane.

The replay walks flows, not packet objects: a flow's packets are named by
their :class:`FlowKey`, and every switch answers for a run of them at once
(:meth:`~repro.dataplane.edge_switch.EdgeSwitch.classify_run`).  A replayed
flow's first packet weighs :data:`DATA_PACKET_BYTES`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addresses import MacAddress


#: Size of a full data packet; what a replayed flow's first packet weighs.
DATA_PACKET_BYTES = 1500


@dataclass(frozen=True, slots=True, order=True)
class FlowKey:
    """Identity of a flow: the (source MAC, destination MAC, tenant) triple.

    The paper's traces are switch-to-switch/host-to-host; we keep the tenant
    in the key because inter-tenant communication is what the controller
    must always see.
    """

    src_mac: MacAddress
    dst_mac: MacAddress
    tenant_id: int

    def __hash__(self) -> int:
        # Flow keys are looked up in every switch's flow table per packet;
        # hashing the raw integers skips three nested dataclass hashes.
        # Consistent with the generated __eq__ (equal fields ⇒ equal hash).
        return hash((self.src_mac.value, self.dst_mac.value, self.tenant_id))
