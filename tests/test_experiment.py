"""Tests for the day-long Fig. 7/8/9 replay, its workload-comparison helpers
and the cold-cache experiment."""

import pytest

from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.core.latency_eval import ColdCacheExperiment, ColdCacheExperimentConfig
from repro.core.results import WorkloadComparison, WorkloadSeriesResult
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScheduleSpec

#: The Fig. 7/8/9 systems, replayed on a pre-built trace the way the figure
#: benchmarks do (``benchmarks/conftest.py``).
DAY_LONG_SYSTEMS = ("openflow", "lazyctrl-static", "lazyctrl-dynamic")


@pytest.fixture(scope="module")
def day_long_runs(small_trace, small_config):
    runner = ScenarioRunner()
    schedule = ScheduleSpec(bucket_hours=4.0)
    runs = (
        runner.replay_system(system, small_trace, schedule=schedule, config=small_config)
        for system in DAY_LONG_SYSTEMS
    )
    return {run.label: run for run in runs}


def reduction(runs, lazy_label):
    return WorkloadComparison(
        baseline=runs["OpenFlow"].workload, lazyctrl=runs[lazy_label].workload
    ).reduction_fraction()


class TestDayLongReplay:
    def test_all_runs_present(self, day_long_runs):
        assert set(day_long_runs) == {"OpenFlow", "LazyCtrl (static)", "LazyCtrl (dynamic)"}

    def test_lazyctrl_reduces_controller_workload(self, day_long_runs):
        static = reduction(day_long_runs, "LazyCtrl (static)")
        dynamic = reduction(day_long_runs, "LazyCtrl (dynamic)")
        assert static > 0.2
        assert dynamic > 0.4
        assert dynamic >= static - 0.05

    def test_lazyctrl_latency_not_worse(self, day_long_runs):
        baseline = day_long_runs["OpenFlow"].latency.overall_mean_ms
        lazy = day_long_runs["LazyCtrl (dynamic)"].latency.overall_mean_ms
        assert lazy <= baseline

    def test_workload_series_has_expected_buckets(self, day_long_runs):
        run = day_long_runs["OpenFlow"]
        assert len(run.workload.krps) == 6  # 24 h / 4 h buckets
        assert run.workload.peak_krps() >= run.workload.mean_krps()

    def test_static_mode_never_updates_grouping(self, day_long_runs):
        assert sum(day_long_runs["LazyCtrl (static)"].updates_per_hour) == 0

    def test_dynamic_mode_updates_grouping(self, day_long_runs):
        assert sum(day_long_runs["LazyCtrl (dynamic)"].updates_per_hour) >= 1

    def test_counters_consistent_with_workload(self, day_long_runs):
        run = day_long_runs["LazyCtrl (dynamic)"]
        assert run.counters.controller_requests <= run.total_controller_requests

    def test_fractional_duration_reports_all_update_hours(self, small_trace, small_config):
        """Regression: duration_hours=1.5 used to truncate to 1 hour of updates."""
        run = ScenarioRunner().replay_system(
            "lazyctrl-dynamic",
            small_trace,
            schedule=ScheduleSpec(duration_hours=1.5, bucket_hours=1.5),
            config=small_config,
        )
        assert len(run.updates_per_hour) == 2


class TestWorkloadComparison:
    def test_workload_comparison_helpers(self):
        baseline = WorkloadSeriesResult(label="base", bucket_hours=2.0, krps=[2.0, 2.0])
        lazy = WorkloadSeriesResult(label="lazy", bucket_hours=2.0, krps=[1.0, 0.5])
        comparison = WorkloadComparison(baseline=baseline, lazyctrl=lazy)
        assert comparison.reduction_fraction() == pytest.approx(1 - 1.5 / 4.0)

    def test_reduction_zero_when_baseline_empty(self):
        empty = WorkloadSeriesResult(label="base", bucket_hours=2.0, krps=[0.0])
        lazy = WorkloadSeriesResult(label="lazy", bucket_hours=2.0, krps=[0.0])
        assert WorkloadComparison(baseline=empty, lazyctrl=lazy).reduction_fraction() == 0.0


class TestColdCacheExperiment:
    @pytest.fixture(scope="class")
    def cold_cache_result(self):
        config = ColdCacheExperimentConfig(switch_count=12, background_host_count=120, warmup_flows=1500, seed=3)
        system_config = LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=3, random_seed=3))
        return ColdCacheExperiment(config, system_config=system_config).run()

    def test_ordering_matches_paper(self, cold_cache_result):
        assert (
            cold_cache_result.lazyctrl_intra_group_ms
            < cold_cache_result.lazyctrl_inter_group_ms
            < cold_cache_result.openflow_ms
        )

    def test_intra_group_order_of_magnitude_faster(self, cold_cache_result):
        assert cold_cache_result.intra_group_speedup() > 10.0

    def test_magnitudes_in_paper_range(self, cold_cache_result):
        # Paper: 0.83 ms / 5.38 ms / 15.06 ms.  The simulator should land in
        # the same magnitude bands, not on the exact numbers.
        assert 0.2 < cold_cache_result.lazyctrl_intra_group_ms < 3.0
        assert 2.0 < cold_cache_result.lazyctrl_inter_group_ms < 10.0
        assert 8.0 < cold_cache_result.openflow_ms < 30.0
