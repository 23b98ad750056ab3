"""Control plane: channels, messages, groups, controllers and grouping management."""

from repro.controlplane.base import EdgeController
from repro.controlplane.channels import ChannelRegistry, ChannelStats, ChannelType, ControlChannel
from repro.controlplane.group import LocalControlGroup, RingNeighbors
from repro.controlplane.grouping_manager import GroupingManager, RegroupingDecision
from repro.controlplane.lazyctrl_controller import InterGroupSetupResult, LazyCtrlController
from repro.controlplane.messages import (
    ControlMessage,
    FailureNotificationMessage,
    FlowModMessage,
    GroupConfigMessage,
    GroupStateReportMessage,
    KeepaliveMessage,
    LfibUpdateMessage,
    MessageType,
    PacketInMessage,
)
from repro.controlplane.openflow_controller import OpenFlowController, PacketInResult
from repro.controlplane.state_dissemination import DisseminationStats, StateDisseminator
from repro.controlplane.tenant_manager import TenantManager

__all__ = [
    "ChannelRegistry",
    "ChannelStats",
    "ChannelType",
    "ControlChannel",
    "ControlMessage",
    "DisseminationStats",
    "EdgeController",
    "FailureNotificationMessage",
    "FlowModMessage",
    "GroupConfigMessage",
    "GroupStateReportMessage",
    "GroupingManager",
    "InterGroupSetupResult",
    "KeepaliveMessage",
    "LazyCtrlController",
    "LfibUpdateMessage",
    "LocalControlGroup",
    "MessageType",
    "OpenFlowController",
    "PacketInMessage",
    "PacketInResult",
    "RegroupingDecision",
    "RingNeighbors",
    "StateDisseminator",
    "TenantManager",
]
