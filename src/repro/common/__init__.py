"""Shared value objects, configuration and helpers used by every subsystem."""

from repro.common.addresses import IpAddress, MacAddress, mac_range
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
    ChannelError,
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
from repro.common.rng import derive_seed, make_rng, sample_zipf_index, shuffled, weighted_choice

__all__ = [
    "AddressError",
    "BloomFilterConfig",
    "ChannelError",
    "ConfigurationError",
    "ControlPlaneError",
    "FailoverError",
    "FlowKey",
    "FlowTableConfig",
    "FlowTableError",
    "GroupingConfig",
    "InfeasibleGroupingError",
    "IpAddress",
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
    "mac_range",
    "make_rng",
    "sample_zipf_index",
    "shuffled",
    "weighted_choice",
]
