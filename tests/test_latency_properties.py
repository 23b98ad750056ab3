"""Property tests: the latency model's ``*_ms`` fast paths are bit-identical.

The replay hot loop calls the allocation-free ``*_ms`` totals instead of the
breakdown methods; the whole point of the pairing is that the two always
agree bit for bit — same left-to-right summation order, same guards — for
*every* configuration, including the queueing knobs the bandwidth subsystem
added.  Hypothesis drives both paths across generated configs and inputs
and demands exact ``==``, not approximate equality: a single reordering of
float additions would break the streamed≡materialized and sharded≡serial
bit-identity contracts downstream.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common.config import LatencyModelConfig
from repro.simulation.latency import LatencyModel

#: Calibration constants stay in a realistic magnitude band; exotic values
#: (1e300, subnormals) are out of scope — configs validate to >= 0 anyway.
_ms = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)

_configs = st.builds(
    LatencyModelConfig,
    datapath_lookup_ms=_ms,
    encapsulation_ms=_ms,
    underlay_hop_ms=_ms,
    host_link_ms=_ms,
    controller_rtt_ms=_ms,
    controller_base_processing_ms=_ms,
    controller_per_krps_penalty_ms=_ms,
    arp_flood_ms=_ms,
    queueing_service_ms=st.floats(
        min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
    ),
    queueing_utilization_cap=st.floats(
        min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
    ),
)

_loads = st.floats(min_value=-100.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_utilizations = st.floats(min_value=-1.0, max_value=20.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(config=_configs)
def test_load_independent_fast_paths_match_breakdowns(config):
    model = LatencyModel(config)
    assert model.local_delivery_ms() == model.local_delivery().total_ms
    assert model.flow_table_hit_ms() == model.flow_table_hit_delivery().total_ms


@settings(max_examples=150, deadline=None)
@given(config=_configs, targets=st.integers(min_value=0, max_value=6))
def test_intra_group_fast_path_matches_breakdown(config, targets):
    model = LatencyModel(config)
    expected = model.intra_group_delivery(duplicate_targets=targets).total_ms
    assert model.intra_group_ms(targets) == expected
    # The memo must not drift on repeated lookups.
    assert model.intra_group_ms(targets) == expected


@settings(max_examples=150, deadline=None)
@given(config=_configs, load=_loads)
def test_inter_group_setup_fast_path_matches_breakdown(config, load):
    model = LatencyModel(config)
    assert model.inter_group_setup_ms(load) == model.inter_group_setup(load).total_ms


@settings(max_examples=150, deadline=None)
@given(config=_configs, load=_loads, learning=st.booleans())
def test_openflow_reactive_fast_path_matches_breakdown(config, load, learning):
    model = LatencyModel(config)
    assert (
        model.openflow_reactive_ms(load, needs_location_learning=learning)
        == model.openflow_reactive_setup(load, needs_location_learning=learning).total_ms
    )


@settings(max_examples=300, deadline=None)
@given(config=_configs, utilization=_utilizations)
def test_queueing_fast_path_matches_breakdown(config, utilization):
    model = LatencyModel(config)
    assert model.queueing_delay_ms(utilization) == model.queueing_delay(utilization).total_ms


@settings(max_examples=150, deadline=None)
@given(config=_configs, utilization=_utilizations)
def test_disabled_queueing_is_exactly_zero(config, utilization):
    """``queueing_service_ms=0`` (the default) reproduces pre-subsystem totals.

    Every path total must be unchanged by the queueing knobs when the
    service time is zero: the queueing term contributes exactly 0.0, and
    the other components never read the new fields.
    """
    disabled = dataclasses.replace(config, queueing_service_ms=0.0)
    model = LatencyModel(disabled)
    assert model.queueing_delay_ms(utilization) == 0.0
    assert model.queueing_delay(utilization).total_ms == 0.0

    # The non-queueing paths are pure functions of the shared constants —
    # a config differing only in queueing knobs yields identical totals.
    reknobbed = dataclasses.replace(
        disabled, queueing_service_ms=5.0, queueing_utilization_cap=0.5
    )
    other = LatencyModel(reknobbed)
    assert model.local_delivery_ms() == other.local_delivery_ms()
    assert model.flow_table_hit_ms() == other.flow_table_hit_ms()
    assert model.intra_group_ms(2) == other.intra_group_ms(2)
    assert model.inter_group_setup_ms(1234.5) == other.inter_group_setup_ms(1234.5)
    assert model.openflow_reactive_ms(1234.5, needs_location_learning=True) == other.openflow_reactive_ms(
        1234.5, needs_location_learning=True
    )


@settings(max_examples=200, deadline=None)
@given(config=_configs, utilization=_utilizations)
def test_queueing_delay_is_bounded_and_monotone_in_the_cap(config, utilization):
    """The M/M/1 term never exceeds its capped worst case."""
    model = LatencyModel(config)
    value = model.queueing_delay_ms(utilization)
    cap = config.queueing_utilization_cap
    worst = config.queueing_service_ms * cap / (1.0 - cap)
    assert 0.0 <= value <= worst + 1e-12
