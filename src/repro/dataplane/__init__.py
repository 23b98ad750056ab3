"""Data plane: run verdicts, the edge switch (the OpenFlow baseline) and the LazyCtrl switch."""

from repro import _lazy_exports

__all__ = [
    "EdgeSwitch",
    "ForwardingOutcome",
    "LazyCtrlEdgeSwitch",
    "RunVerdict",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.dataplane.decisions": ("ForwardingOutcome", "RunVerdict"),
        "repro.dataplane.edge_switch": ("EdgeSwitch", "LazyCtrlEdgeSwitch"),
    },
)
