"""Control plane: groups, controllers, state reports and grouping management."""

from repro import _lazy_exports

__all__ = [
    "DisseminationStats",
    "EdgeController",
    "GroupStateReportMessage",
    "GroupingManager",
    "InterGroupSetupResult",
    "LazyCtrlController",
    "LocalControlGroup",
    "OpenFlowController",
    "PacketInResult",
    "RegroupingDecision",
    "RingNeighbors",
    "StateDisseminator",
    "TenantManager",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.controlplane.base": ("EdgeController",),
        "repro.controlplane.group": ("LocalControlGroup", "RingNeighbors"),
        "repro.controlplane.grouping_manager": ("GroupingManager", "RegroupingDecision"),
        "repro.controlplane.lazyctrl_controller": ("InterGroupSetupResult", "LazyCtrlController"),
        "repro.controlplane.messages": ("GroupStateReportMessage",),
        "repro.controlplane.openflow_controller": ("OpenFlowController", "PacketInResult"),
        "repro.controlplane.state_dissemination": ("DisseminationStats", "StateDisseminator"),
        "repro.controlplane.tenant_manager": ("TenantManager",),
    },
)
