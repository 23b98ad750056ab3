"""Control plane: groups, controllers, state reports and grouping management."""

from repro.controlplane.base import EdgeController
from repro.controlplane.group import LocalControlGroup, RingNeighbors
from repro.controlplane.grouping_manager import GroupingManager, RegroupingDecision
from repro.controlplane.lazyctrl_controller import InterGroupSetupResult, LazyCtrlController
from repro.controlplane.messages import GroupStateReportMessage
from repro.controlplane.openflow_controller import OpenFlowController, PacketInResult
from repro.controlplane.state_dissemination import DisseminationStats, StateDisseminator
from repro.controlplane.tenant_manager import TenantManager

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
