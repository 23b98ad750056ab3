"""Shared value objects, configuration and helpers used by every subsystem."""

from repro.common.addresses import MacAddress
from repro.common.config import (
    BloomFilterConfig,
    FlowTableConfig,
    GroupingConfig,
    LatencyModelConfig,
    LazyCtrlConfig,
    RegroupingPolicy,
)
from repro.common.errors import (
    AddressError,
    ConfigurationError,
    ControlPlaneError,
    FailoverError,
    FlowTableError,
    InfeasibleGroupingError,
    NegotiationError,
    PartitioningError,
    ReproError,
    TopologyError,
    TrafficError,
    UnknownHostError,
    UnknownSwitchError,
)
from repro.common.packets import FlowKey
from repro.common.rng import derive_seed, make_rng, sample_zipf_index

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
    "RegroupingPolicy",
    "ReproError",
    "TopologyError",
    "TrafficError",
    "UnknownHostError",
    "UnknownSwitchError",
    "derive_seed",
    "make_rng",
    "sample_zipf_index",
]
