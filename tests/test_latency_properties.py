"""Property tests: the latency model's ``*_ms`` fast paths are bit-identical.

The replay hot loop calls the allocation-free ``*_ms`` totals instead of the
breakdown methods; the whole point of the pairing is that the two always
agree bit for bit — same left-to-right summation order, same guards — for
*every* calibration, including the queueing term the bandwidth subsystem
added.  Hypothesis patches generated values into the calibration constants
of :mod:`repro.simulation.latency`, drives both paths across them and the
queueing config, and demands exact ``==``, not approximate equality: a
single reordering of float additions would break the streamed≡materialized
and sharded≡serial bit-identity contracts downstream.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.common.config import LatencyModelConfig
from repro.simulation import latency
from repro.simulation.latency import LatencyModel

#: Calibration constants stay in a realistic magnitude band; exotic values
#: (1e300, subnormals) are out of scope.
_ms = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)

_calibrations = st.fixed_dictionaries(
    {
        "DATAPATH_LOOKUP_MS": _ms,
        "ENCAPSULATION_MS": _ms,
        "UNDERLAY_HOP_MS": _ms,
        "HOST_LINK_MS": _ms,
        "CONTROLLER_RTT_MS": _ms,
        "CONTROLLER_BASE_PROCESSING_MS": _ms,
        "CONTROLLER_PER_KRPS_PENALTY_MS": _ms,
        "ARP_FLOOD_MS": _ms,
        "QUEUEING_UTILIZATION_CAP": st.floats(
            min_value=0.01, max_value=0.99, allow_nan=False, allow_infinity=False
        ),
    }
)

_configs = st.builds(
    LatencyModelConfig,
    queueing_service_ms=st.floats(
        min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
    ),
)

_loads = st.floats(min_value=-100.0, max_value=1e6, allow_nan=False, allow_infinity=False)
_utilizations = st.floats(min_value=-1.0, max_value=20.0, allow_nan=False, allow_infinity=False)


def calibrated(calibration):
    """The latency module with ``calibration`` patched into its constants."""
    return mock.patch.multiple(latency, **calibration)


@settings(max_examples=150, deadline=None)
@given(calibration=_calibrations, config=_configs)
def test_load_independent_fast_paths_match_breakdowns(calibration, config):
    with calibrated(calibration):
        model = LatencyModel(config)
        assert model.local_delivery_ms() == model.local_delivery().total_ms
        assert model.flow_table_hit_ms() == model.flow_table_hit_delivery().total_ms


@settings(max_examples=150, deadline=None)
@given(calibration=_calibrations, config=_configs, targets=st.integers(min_value=0, max_value=6))
def test_intra_group_fast_path_matches_breakdown(calibration, config, targets):
    with calibrated(calibration):
        model = LatencyModel(config)
        expected = model.intra_group_delivery(duplicate_targets=targets).total_ms
        assert model.intra_group_ms(targets) == expected
        # The memo must not drift on repeated lookups.
        assert model.intra_group_ms(targets) == expected


@settings(max_examples=150, deadline=None)
@given(calibration=_calibrations, config=_configs, load=_loads)
def test_inter_group_setup_fast_path_matches_breakdown(calibration, config, load):
    with calibrated(calibration):
        model = LatencyModel(config)
        assert model.inter_group_setup_ms(load) == model.inter_group_setup(load).total_ms


@settings(max_examples=150, deadline=None)
@given(calibration=_calibrations, config=_configs, load=_loads, learning=st.booleans())
def test_openflow_reactive_fast_path_matches_breakdown(calibration, config, load, learning):
    with calibrated(calibration):
        model = LatencyModel(config)
        assert (
            model.openflow_reactive_ms(load, needs_location_learning=learning)
            == model.openflow_reactive_setup(load, needs_location_learning=learning).total_ms
        )


@settings(max_examples=300, deadline=None)
@given(calibration=_calibrations, config=_configs, utilization=_utilizations)
def test_queueing_fast_path_matches_breakdown(calibration, config, utilization):
    with calibrated(calibration):
        model = LatencyModel(config)
        assert model.queueing_delay_ms(utilization) == model.queueing_delay(utilization).total_ms


@settings(max_examples=150, deadline=None)
@given(calibration=_calibrations, utilization=_utilizations)
def test_disabled_queueing_is_exactly_zero(calibration, utilization):
    """``queueing_service_ms=0`` (the default) reproduces pre-subsystem totals.

    Every path total must be unchanged by the queueing term when the
    service time is zero: the term contributes exactly 0.0, and the other
    components never read the queueing config.
    """
    with calibrated(calibration):
        model = LatencyModel(LatencyModelConfig(queueing_service_ms=0.0))
        assert model.queueing_delay_ms(utilization) == 0.0
        assert model.queueing_delay(utilization).total_ms == 0.0

        # The non-queueing paths are pure functions of the shared constants —
        # a config differing only in its service time yields identical totals.
        other = LatencyModel(LatencyModelConfig(queueing_service_ms=5.0))
        assert model.local_delivery_ms() == other.local_delivery_ms()
        assert model.flow_table_hit_ms() == other.flow_table_hit_ms()
        assert model.intra_group_ms(2) == other.intra_group_ms(2)
        assert model.inter_group_setup_ms(1234.5) == other.inter_group_setup_ms(1234.5)
        assert model.openflow_reactive_ms(1234.5, needs_location_learning=True) == other.openflow_reactive_ms(
            1234.5, needs_location_learning=True
        )


@settings(max_examples=200, deadline=None)
@given(calibration=_calibrations, config=_configs, utilization=_utilizations)
def test_queueing_delay_is_bounded_and_monotone_in_the_cap(calibration, config, utilization):
    """The M/M/1 term never exceeds its capped worst case."""
    with calibrated(calibration):
        value = LatencyModel(config).queueing_delay_ms(utilization)
    cap = calibration["QUEUEING_UTILIZATION_CAP"]
    worst = config.queueing_service_ms * cap / (1.0 - cap)
    assert 0.0 <= value <= worst + 1e-12
