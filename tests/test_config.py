"""Unit tests for configuration validation."""

import pytest

from repro.common.config import (
    BloomFilterConfig,
    FlowTableConfig,
    GroupingConfig,
    LatencyModelConfig,
    LazyCtrlConfig,
)
from repro.common.errors import ConfigurationError
from repro.controlplane import grouping_manager


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


class TestRegroupingTriggers:
    def test_triggers_match_paper(self):
        assert grouping_manager.WORKLOAD_GROWTH_TRIGGER == pytest.approx(0.30)
        assert grouping_manager.MIN_INTERVAL_SECONDS == pytest.approx(120.0)


class TestLatencyModelConfig:
    def test_queueing_is_off_by_default(self):
        assert LatencyModelConfig().queueing_service_ms == 0.0

    def test_rejects_negative_queueing_service_time(self):
        with pytest.raises(ConfigurationError, match="queueing_service_ms"):
            LatencyModelConfig(queueing_service_ms=-0.1)


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
