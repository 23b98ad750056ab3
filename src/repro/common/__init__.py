"""Shared value objects, configuration and helpers used by every subsystem."""

from repro import _lazy_exports

__all__ = [
    "AddressError",
    "BloomFilterConfig",
    "ConfigurationError",
    "ControlPlaneError",
    "FailoverError",
    "FlowKey",
    "FlowTableConfig",
    "FlowTableError",
    "GroupingConfig",
    "InfeasibleGroupingError",
    "LatencyModelConfig",
    "LazyCtrlConfig",
    "MacAddress",
    "NegotiationError",
    "PartitioningError",
    "ReproError",
    "TopologyError",
    "TrafficError",
    "UnknownHostError",
    "UnknownSwitchError",
    "derive_seed",
    "make_rng",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.common.addresses": ("MacAddress",),
        "repro.common.config": (
            "BloomFilterConfig",
            "FlowTableConfig",
            "GroupingConfig",
            "LatencyModelConfig",
            "LazyCtrlConfig",
        ),
        "repro.common.errors": (
            "AddressError",
            "ConfigurationError",
            "ControlPlaneError",
            "FailoverError",
            "FlowTableError",
            "InfeasibleGroupingError",
            "NegotiationError",
            "PartitioningError",
            "ReproError",
            "TopologyError",
            "TrafficError",
            "UnknownHostError",
            "UnknownSwitchError",
        ),
        "repro.common.packets": ("FlowKey",),
        "repro.common.rng": ("derive_seed", "make_rng"),
    },
)
