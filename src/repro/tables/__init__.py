"""Finite flow-table management: timeout/eviction policies and table specs.

The package has three layers:

* :mod:`repro.tables.policies` — the :class:`TableTimeoutPolicy` interface
  and the built-in policies (static idle/hard timeouts, the OpenFlow-style
  hybrid, pure LRU, and an adaptive inter-arrival timeout predictor);
* :mod:`repro.tables.registry` — the ``@register_table_policy`` registry
  resolving policy names from :class:`~repro.common.config.FlowTableConfig`;
* :mod:`repro.tables.spec` — :class:`TableSpec`, the declarative overlay a
  :class:`~repro.core.scenario.ScenarioSpec` uses to put every switch under
  table pressure.
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
from repro.tables.spec import TableSpec

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
    "TableSpec",
    "TableTimeoutPolicy",
    "available_table_policies",
    "build_policy",
    "get_table_policy",
    "register_table_policy",
    "unregister_table_policy",
]
