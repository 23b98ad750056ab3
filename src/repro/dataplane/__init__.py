"""Data plane: run verdicts, the edge switch (the OpenFlow baseline) and the LazyCtrl switch."""

from repro.dataplane.decisions import ForwardingOutcome, RunVerdict
from repro.dataplane.edge_switch import EdgeSwitch, LazyCtrlEdgeSwitch

__all__ = [
    "EdgeSwitch",
    "ForwardingOutcome",
    "LazyCtrlEdgeSwitch",
    "RunVerdict",
]
