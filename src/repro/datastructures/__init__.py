"""Core data structures: Bloom filters, forwarding tables and intensity matrices."""

from repro import _lazy_exports

__all__ = [
    "ActionType",
    "BloomFilter",
    "CentralLib",
    "FibEntry",
    "FlowAction",
    "FlowRule",
    "FlowTable",
    "FlowTableStats",
    "GroupFib",
    "IntensityMatrix",
    "LocalFib",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.datastructures.bloom": ("BloomFilter",),
        "repro.datastructures.fib": ("CentralLib", "FibEntry", "GroupFib", "LocalFib"),
        "repro.datastructures.flow_table": (
            "ActionType",
            "FlowAction",
            "FlowRule",
            "FlowTable",
            "FlowTableStats",
        ),
        "repro.datastructures.intensity": ("IntensityMatrix",),
    },
)
