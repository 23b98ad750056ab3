"""Data plane: forwarding decisions, the edge-switch base, the LazyCtrl switch and the OpenFlow baseline."""

from repro.dataplane.decisions import ForwardingDecision, ForwardingOutcome
from repro.dataplane.edge_switch import EdgeSwitch, LazyCtrlEdgeSwitch
from repro.dataplane.openflow_switch import OpenFlowEdgeSwitch

__all__ = [
    "EdgeSwitch",
    "ForwardingDecision",
    "ForwardingOutcome",
    "LazyCtrlEdgeSwitch",
    "OpenFlowEdgeSwitch",
]
