"""Finite flow-table management: timeout/eviction policies.

The package has two layers:

* :mod:`repro.tables.policies` — the :class:`TableTimeoutPolicy` interface
  and the built-in policies (static idle/hard timeouts, the OpenFlow-style
  hybrid, pure LRU, and an adaptive inter-arrival timeout predictor);
* :mod:`repro.tables.registry` — the ``@register_table_policy`` registry
  resolving policy names from :class:`~repro.common.config.FlowTableConfig`.

A scenario puts every switch under table pressure through its
``config.flow_table``: capacity, timeouts, policy name and policy params.
"""

from repro.tables.policies import (
    AdaptiveParams,
    AdaptiveTimeoutPolicy,
    IdleHardHybridPolicy,
    IdleHardParams,
    LruParams,
    RemovalReason,
    StaticHardParams,
    StaticHardPolicy,
    StaticIdleParams,
    StaticIdlePolicy,
    TableTimeoutPolicy,
)
from repro.tables.registry import (
    available_table_policies,
    build_policy,
    get_table_policy,
    register_table_policy,
    unregister_table_policy,
)

__all__ = [
    "AdaptiveParams",
    "AdaptiveTimeoutPolicy",
    "IdleHardHybridPolicy",
    "IdleHardParams",
    "LruParams",
    "RemovalReason",
    "StaticHardParams",
    "StaticHardPolicy",
    "StaticIdleParams",
    "StaticIdlePolicy",
    "TableTimeoutPolicy",
    "available_table_policies",
    "build_policy",
    "get_table_policy",
    "register_table_policy",
    "unregister_table_policy",
]
