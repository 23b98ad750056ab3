"""Unit tests for metric recorders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.metrics import CounterSeries, LatencyRecorder, WorkloadMeter


class TestCounterSeries:
    def test_buckets_by_timestamp(self):
        series = CounterSeries(10.0)
        series.record(1.0)
        series.record(5.0)
        series.record(15.0)
        assert series.bucket_count(0) == 2
        assert series.bucket_count(1) == 1

    def test_total(self):
        series = CounterSeries(10.0)
        series.record(1.0, amount=2.5)
        series.record(25.0)
        assert series.total() == pytest.approx(3.5)

    def test_series_fills_gaps(self):
        series = CounterSeries(10.0)
        series.record(1.0)
        series.record(35.0)
        values = dict(series.series(bucket_range=(0, 4)))
        assert values == {0: 1.0, 1: 0.0, 2: 0.0, 3: 1.0}

    def test_series_without_a_range_is_the_touched_buckets_in_order(self):
        series = CounterSeries(10.0)
        series.record(35.0)
        series.record(1.0, amount=2.0)
        series.record(38.0)
        assert series.series() == [(0, 2.0), (3, 2.0)]

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            CounterSeries(0.0)


class TestLatencyRecorder:
    def test_bucket_means(self):
        recorder = LatencyRecorder(10.0)
        recorder.record(1.0, 2.0)
        recorder.record(2.0, 4.0)
        recorder.record(15.0, 10.0)
        assert recorder.bucket_mean(0) == pytest.approx(3.0)
        assert recorder.bucket_mean(1) == pytest.approx(10.0)

    def test_weighted_record(self):
        recorder = LatencyRecorder(10.0)
        recorder.record(1.0, 2.0)
        recorder.record(1.0, 10.0, count=3)
        assert recorder.overall_mean() == pytest.approx((2.0 + 30.0) / 4)
        assert recorder.bucket_totals() == {0: (32.0, 4)}

    def test_zero_count_ignored(self):
        recorder = LatencyRecorder(10.0)
        recorder.record(1.0, 5.0, count=0)
        assert recorder.bucket_totals() == {}

    def test_empty_bucket_mean_zero(self):
        assert LatencyRecorder(10.0).bucket_mean(3) == 0.0

    def test_a_bulk_fold_is_the_record_calls_it_stands_for(self):
        calls = [(12.0, 0.1, 1), (14.0, 0.7, 9), (17.5, 1.0 / 3.0, 2)]
        one_by_one = LatencyRecorder(10.0)
        for timestamp, latency_ms, count in calls:
            one_by_one.record(timestamp, latency_ms, count=count)
        bulk = LatencyRecorder(10.0)
        total = bulk.bucket_sum(1)
        for _, latency_ms, count in calls:
            total += latency_ms * count
        bulk.record_bulk(1, total, 12)
        bulk.record_bulk(1, 99.0, 0)
        assert bulk.bucket_totals() == one_by_one.bucket_totals()

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            LatencyRecorder(0.0)


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(
    seed=st.one_of(st.just(0.0), finite),
    flows=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), finite, st.floats(min_value=1e-9, max_value=1e-3)),
            st.one_of(st.just(0.0), finite),
            st.sampled_from((1, 1, 2, 7, 1000)),
        ),
        max_size=60,
    ),
)
@settings(max_examples=300, deadline=None)
def test_the_kernels_numpy_fold_is_the_python_fold(seed, flows):
    """The kernel's bucket fold over interleaved ``first``, ``steady * (packets - 1)``
    addends — zeros, single-packet flows, mixed magnitudes — is the loop's, bit for bit."""
    np = pytest.importorskip("numpy")
    from repro.kernel.columnar import fold_sum

    addends = [term for first, steady, packets in flows for term in (first, steady * (packets - 1))]
    total = seed
    for addend in addends:
        total += addend
    assert fold_sum(seed, np.array(addends, dtype=np.float64)) == total


class TestWorkloadMeter:
    def test_rate_within_window(self):
        meter = WorkloadMeter(window_seconds=10.0)
        for t in range(10):
            meter.record(float(t))
        assert meter.rate(10.0) == pytest.approx(1.0, rel=0.3)

    def test_old_events_expire(self):
        meter = WorkloadMeter(window_seconds=10.0)
        meter.record(0.0)
        assert meter.rate(100.0) == 0.0

    def test_empty_rate_zero(self):
        assert WorkloadMeter().rate(5.0) == 0.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WorkloadMeter(window_seconds=0.0)


class TestLatencyModelBasics:
    def test_intra_group_much_faster_than_openflow_reactive(self):
        from repro.simulation.latency import LatencyModel

        model = LatencyModel()
        intra = model.intra_group_delivery().total_ms
        reactive = model.openflow_reactive_setup(3000.0, needs_location_learning=True).total_ms
        assert reactive > 10 * intra

    def test_inter_group_between_intra_and_reactive(self):
        from repro.simulation.latency import LatencyModel

        model = LatencyModel()
        intra = model.intra_group_delivery().total_ms
        inter = model.inter_group_setup(1000.0).total_ms
        reactive = model.openflow_reactive_setup(1000.0, needs_location_learning=True).total_ms
        assert intra < inter < reactive

    def test_controller_processing_grows_with_load(self):
        from repro.simulation.latency import LatencyModel

        model = LatencyModel()
        assert model.controller_processing(5000.0) > model.controller_processing(100.0)

    def test_duplicate_targets_add_latency(self):
        from repro.simulation.latency import LatencyModel

        model = LatencyModel()
        assert model.intra_group_delivery(duplicate_targets=3).total_ms > model.intra_group_delivery().total_ms

    def test_breakdown_totals_are_component_sums(self):
        from repro.simulation.latency import LatencyModel

        model = LatencyModel()
        breakdown = model.inter_group_setup(500.0)
        assert breakdown.total_ms == pytest.approx(sum(breakdown.components.values()))
