"""Flow-table policies: the named timeout/eviction policies a :class:`~repro.common.config.FlowTableConfig` references.

A policy's factory takes the owning table's
:class:`~repro.common.config.FlowTableConfig` (plus, for a policy registered
with a params dataclass, its validated ``policy_params``) and returns a fresh
:class:`~repro.tables.policies.TableTimeoutPolicy`.  The static built-ins
read their timeouts from the config alone, so only ``adaptive`` takes
params; a policy without a params dataclass refuses any.  Every
:class:`~repro.datastructures.flow_table.FlowTable` builds its **own**
instance via :func:`build_policy`, so stateful policies (e.g. the adaptive
timeout predictor) never share learned state across switches or systems.
See :mod:`repro.common.registry`.
"""

from __future__ import annotations

from repro.common.config import FlowTableConfig
from repro.common.registry import NamedRegistry
from repro.tables.policies import (
    AdaptiveParams,
    TableTimeoutPolicy,
    build_adaptive,
    build_idle_hard,
    build_lru,
    build_static_hard,
    build_static_idle,
)

TABLE_POLICIES = NamedRegistry(kind="table policy", known_label="registered policies")
register_table_policy = TABLE_POLICIES.register
unregister_table_policy = TABLE_POLICIES.unregister
get_table_policy = TABLE_POLICIES.get
available_table_policies = TABLE_POLICIES.available


def build_policy(config: FlowTableConfig) -> TableTimeoutPolicy:
    """Build the policy instance a table with ``config`` should run."""
    return get_table_policy(config.policy).build(config, params=config.policy_params)


register_table_policy(
    "static-idle",
    label="Static idle timeout",
    description="Fixed idle timeout; rules expire once unmatched that long",
)(build_static_idle)
register_table_policy(
    "static-hard",
    label="Static hard timeout",
    description="Fixed hard timeout; rules expire a set time after install",
)(build_static_hard)
register_table_policy(
    "idle-hard-hybrid",
    label="Idle + hard hybrid",
    description="OpenFlow's standard pair: idle timeout with a hard upper bound",
)(build_idle_hard)
register_table_policy(
    "lru",
    label="LRU eviction only",
    description="No timeouts; capacity eviction of least-recently matched rules",
)(build_lru)
register_table_policy(
    "adaptive",
    params=AdaptiveParams,
    label="Adaptive inter-arrival predictor",
    description="Tunes per-flow idle timeouts from observed inter-arrival gaps",
)(build_adaptive)

