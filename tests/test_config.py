"""Unit tests for configuration validation."""

import pytest

from repro.common.config import (
    BloomFilterConfig,
    FlowTableConfig,
    GroupingConfig,
    LatencyModelConfig,
    LazyCtrlConfig,
    RegroupingPolicy,
)
from repro.common.errors import ConfigurationError


class TestBloomFilterConfig:
    def test_defaults_match_paper_storage_example(self):
        config = BloomFilterConfig()
        # 16 entries x 128 bytes = 2048 bytes per filter (paper §V-D).
        assert config.size_bytes == 2048

    def test_rejects_non_positive_size(self):
        with pytest.raises(ConfigurationError):
            BloomFilterConfig(size_bits=0)

    def test_rejects_non_positive_hash_count(self):
        with pytest.raises(ConfigurationError):
            BloomFilterConfig(hash_count=0)


class TestGroupingConfig:
    def test_defaults_valid(self):
        config = GroupingConfig()
        assert config.group_size_limit == 50

    def test_rejects_zero_group_size(self):
        with pytest.raises(ConfigurationError):
            GroupingConfig(group_size_limit=0)

    def test_rejects_tiny_coarsening_threshold(self):
        with pytest.raises(ConfigurationError):
            GroupingConfig(coarsening_threshold=1)

    def test_rejects_negative_refinement_passes(self):
        with pytest.raises(ConfigurationError):
            GroupingConfig(refinement_passes=-1)

    def test_rejects_zero_restarts(self):
        with pytest.raises(ConfigurationError):
            GroupingConfig(restarts=0)


class TestRegroupingPolicy:
    def test_default_triggers_match_paper(self):
        policy = RegroupingPolicy()
        assert policy.workload_growth_trigger == pytest.approx(0.30)
        assert policy.min_interval_seconds == pytest.approx(120.0)

    def test_rejects_negative_growth_trigger(self):
        with pytest.raises(ConfigurationError):
            RegroupingPolicy(workload_growth_trigger=0.0)

    def test_rejects_max_interval_below_min(self):
        with pytest.raises(ConfigurationError):
            RegroupingPolicy(min_interval_seconds=100.0, max_interval_seconds=50.0)

    def test_rejects_negative_churn_trigger(self):
        with pytest.raises(ConfigurationError, match="churn_event_trigger"):
            RegroupingPolicy(churn_event_trigger=-1)

    def test_rejects_negative_min_interval(self):
        with pytest.raises(ConfigurationError, match="min_interval_seconds"):
            RegroupingPolicy(min_interval_seconds=-1.0)


class TestLatencyModelConfig:
    def test_defaults_non_negative(self):
        config = LatencyModelConfig()
        assert config.controller_rtt_ms > 0

    def test_rejects_negative_component(self):
        with pytest.raises(ConfigurationError):
            LatencyModelConfig(underlay_hop_ms=-0.1)

    @pytest.mark.parametrize("cap", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_a_queueing_cap_outside_the_open_unit_interval(self, cap):
        with pytest.raises(ConfigurationError, match="queueing_utilization_cap"):
            LatencyModelConfig(queueing_utilization_cap=cap)


class TestFlowTableConfig:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            FlowTableConfig(capacity=0)

    def test_rejects_zero_timeout(self):
        with pytest.raises(ConfigurationError):
            FlowTableConfig(idle_timeout_seconds=0)

    def test_rejects_zero_eviction_batch(self):
        with pytest.raises(ConfigurationError):
            FlowTableConfig(eviction_batch=0)

    def test_rejects_negative_hard_timeout(self):
        with pytest.raises(ConfigurationError, match="hard_timeout_seconds"):
            FlowTableConfig(hard_timeout_seconds=-1.0)

    def test_rejects_hard_timeout_below_idle(self):
        # A rule would hard-expire before it could ever idle out.
        with pytest.raises(ConfigurationError, match="hard_timeout_seconds"):
            FlowTableConfig(idle_timeout_seconds=60.0, hard_timeout_seconds=30.0)

    def test_hard_timeout_none_disables_it(self):
        assert FlowTableConfig(hard_timeout_seconds=None).hard_timeout_seconds is None

    def test_rejects_eviction_batch_above_capacity(self):
        with pytest.raises(ConfigurationError, match="eviction_batch"):
            FlowTableConfig(capacity=8, eviction_batch=9)

    def test_rejects_zero_sweep_interval(self):
        with pytest.raises(ConfigurationError, match="sweep_interval_seconds"):
            FlowTableConfig(sweep_interval_seconds=0)

    def test_rejects_blank_policy_name(self):
        with pytest.raises(ConfigurationError):
            FlowTableConfig(policy="  ")


class TestLazyCtrlConfig:
    def test_defaults_compose(self):
        config = LazyCtrlConfig()
        assert config.grouping.group_size_limit == 50
        assert config.bloom.size_bytes == 2048

    def test_rejects_negative_backups(self):
        with pytest.raises(ConfigurationError):
            LazyCtrlConfig(designated_backup_count=-1)

    def test_rejects_zero_keepalive(self):
        with pytest.raises(ConfigurationError):
            LazyCtrlConfig(keepalive_interval_seconds=0)
