"""Finite flow-table management: timeout/eviction policies.

The package has two layers:

* :mod:`repro.tables.policies` — the :class:`TableTimeoutPolicy`, which
  is the static ``(idle, hard)`` policy behind the ``static-idle``,
  ``static-hard``, ``idle-hard-hybrid`` and ``lru`` built-ins, and the
  adaptive inter-arrival timeout predictor that overrides it;
* :mod:`repro.tables.registry` — the ``@register_table_policy`` registry
  resolving policy names from :class:`~repro.common.config.FlowTableConfig`.

A scenario puts every switch under table pressure through its
``config.flow_table``: capacity, timeouts, policy name and (``adaptive``'s)
policy params.
"""

from repro import _lazy_exports

__all__ = [
    "AdaptiveParams",
    "AdaptiveTimeoutPolicy",
    "RemovalReason",
    "TableTimeoutPolicy",
    "available_table_policies",
    "build_policy",
    "get_table_policy",
    "register_table_policy",
    "unregister_table_policy",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.tables.policies": (
            "AdaptiveParams",
            "AdaptiveTimeoutPolicy",
            "RemovalReason",
            "TableTimeoutPolicy",
        ),
        "repro.tables.registry": (
            "available_table_policies",
            "build_policy",
            "get_table_policy",
            "register_table_policy",
            "unregister_table_policy",
        ),
    },
)
