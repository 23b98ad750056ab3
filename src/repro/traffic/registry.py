"""Traffic models: the named flow generators a :class:`~repro.core.scenario.TraceSpec` references.

A model's one factory takes ``(network, params, *, name)`` and returns any
:class:`~repro.traffic.stream.FlowStream` — a lazy
:class:`~repro.traffic.stream.GeneratedStream` (every built-in) or a
materialized :class:`~repro.traffic.trace.Trace`, which is a one-chunk
stream.  Models whose params expose ``total_flows`` / ``duration_hours`` /
``seed`` (all the built-ins do) compose under the ``"mix"`` model, which
rescales those knobs per component.  See :mod:`repro.common.registry`.
"""

from __future__ import annotations

from repro.common.registry import NamedRegistry

#: Each built-in model is registered by its own module, imported on first use.
TRAFFIC_MODELS = NamedRegistry(
    kind="traffic model",
    known_label="registered models",
    builtins={
        "realistic": "repro.traffic.realistic",
        "synthetic": "repro.traffic.synthetic",
        "elephant-mice": "repro.traffic.models",
        "incast-hotspot": "repro.traffic.models",
        "all-to-all-shuffle": "repro.traffic.models",
        "uniform": "repro.traffic.models",
        "mix": "repro.traffic.mix",
    },
)
register_traffic_model = TRAFFIC_MODELS.register
unregister_traffic_model = TRAFFIC_MODELS.unregister
get_traffic_model = TRAFFIC_MODELS.get
available_traffic_models = TRAFFIC_MODELS.available
