"""Unit tests for flow-table timeout/eviction policies, their registry,
and the spec-level finite-table overlay."""

import dataclasses

import pytest

from repro.common.addresses import MacAddress
from repro.common.config import FlowTableConfig, LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.packets import FlowKey
from repro.core.scenario import ScenarioSpec
from repro.datastructures.flow_table import ActionType, FlowAction, FlowRule, FlowTable
from repro.tables.policies import (
    DEFAULT_HARD_TIMEOUT_SECONDS,
    AdaptiveParams,
    AdaptiveTimeoutPolicy,
    IdleHardHybridPolicy,
    RemovalReason,
    StaticHardPolicy,
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


def key(i: int, j: int, tenant: int = 0) -> FlowKey:
    return FlowKey(MacAddress.from_host_index(i), MacAddress.from_host_index(j), tenant)


def rule(i: int, j: int, *, installed_at: float = 0.0, matched_at: float | None = None) -> FlowRule:
    return FlowRule(
        key=key(i, j),
        action=FlowAction(ActionType.DROP),
        installed_at=installed_at,
        last_matched_at=installed_at if matched_at is None else matched_at,
    )


class TestStaticIdlePolicy:
    def test_expires_after_idle_gap(self):
        policy = StaticIdlePolicy(10.0)
        r = rule(1, 2, matched_at=5.0)
        assert policy.expiry_reason(r, now=15.0) is None  # exactly at the limit
        assert policy.expiry_reason(r, now=15.1) is RemovalReason.IDLE_TIMEOUT

    def test_bulk_expired_matches_per_rule_reason(self):
        policy = StaticIdlePolicy(10.0)
        rules = [rule(i, i + 50, matched_at=float(i)) for i in range(5)]
        bulk = policy.expired(rules, now=12.5)
        per_rule = [r for r in rules if policy.expiry_reason(r, 12.5) is not None]
        assert [r for r, _ in bulk] == per_rule
        assert all(reason is RemovalReason.IDLE_TIMEOUT for _, reason in bulk)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError):
            StaticIdlePolicy(0.0)


class TestStaticHardPolicy:
    def test_expires_from_install_time_despite_matches(self):
        policy = StaticHardPolicy(100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=99.0)  # just refreshed
        assert policy.expiry_reason(r, now=100.0) is None
        assert policy.expiry_reason(r, now=100.5) is RemovalReason.HARD_TIMEOUT

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError):
            StaticHardPolicy(-1.0)


class TestIdleHardHybridPolicy:
    def test_idle_fires_before_hard(self):
        policy = IdleHardHybridPolicy(10.0, 100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=0.0)
        assert policy.expiry_reason(r, now=20.0) is RemovalReason.IDLE_TIMEOUT

    def test_hard_caps_constantly_matched_rules(self):
        policy = IdleHardHybridPolicy(10.0, 100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=99.0)
        assert policy.expiry_reason(r, now=101.0) is RemovalReason.HARD_TIMEOUT

    def test_rejects_hard_below_idle(self):
        with pytest.raises(ConfigurationError):
            IdleHardHybridPolicy(100.0, 50.0)


class TestLruBasePolicy:
    def test_never_expires(self):
        policy = TableTimeoutPolicy()
        r = rule(1, 2, matched_at=0.0)
        assert policy.expiry_reason(r, now=1e12) is None
        assert policy.expired([r], now=1e12) == []

    def test_eviction_order_is_least_recently_matched_first(self):
        policy = TableTimeoutPolicy()
        rules = [rule(i, i + 50, matched_at=float(10 - i)) for i in range(5)]
        ordered = policy.eviction_order(rules)
        assert [r.last_matched_at for r in ordered] == sorted(r.last_matched_at for r in rules)


class TestAdaptivePolicy:
    def make(self, **overrides) -> AdaptiveTimeoutPolicy:
        params = AdaptiveParams(**{
            "min_timeout_seconds": 5.0,
            "max_timeout_seconds": 300.0,
            "margin": 2.0,
            "smoothing": 1.0,  # pure last-gap, easy to reason about
            "max_tracked_keys": 64,
            **overrides,
        })
        return AdaptiveTimeoutPolicy(params, default_timeout_seconds=60.0)

    def test_unseen_key_uses_default_timeout(self):
        policy = self.make()
        assert policy.timeout_for(key(1, 2)) == 60.0

    def test_predicts_margin_times_observed_gap(self):
        policy = self.make()
        r = rule(1, 2)
        policy.rule_installed(r, now=0.0)
        policy.rule_matched(r, now=10.0)  # gap 10 -> timeout 2 * 10
        assert policy.timeout_for(r.key) == pytest.approx(20.0)
        r.last_matched_at = 10.0
        assert policy.expiry_reason(r, now=29.0) is None
        assert policy.expiry_reason(r, now=30.5) is RemovalReason.IDLE_TIMEOUT

    def test_prediction_clamped_into_bounds(self):
        policy = self.make()
        fast, slow = rule(1, 2), rule(3, 4)
        policy.rule_installed(fast, now=0.0)
        policy.rule_matched(fast, now=0.001)  # 2ms gap -> clamps up to min
        policy.rule_installed(slow, now=0.0)
        policy.rule_matched(slow, now=10_000.0)  # huge gap -> clamps down to max
        assert policy.timeout_for(fast.key) == pytest.approx(5.0)
        assert policy.timeout_for(slow.key) == pytest.approx(300.0)

    def test_ewma_smooths_successive_gaps(self):
        policy = self.make(smoothing=0.5)
        r = rule(1, 2)
        policy.rule_installed(r, now=0.0)
        policy.rule_matched(r, now=10.0)  # ewma = 10
        policy.rule_matched(r, now=30.0)  # ewma = 0.5*20 + 0.5*10 = 15
        assert policy.timeout_for(r.key) == pytest.approx(30.0)  # margin 2 * 15

    def test_memory_bounded_by_max_tracked_keys(self):
        policy = self.make(max_tracked_keys=3)
        rules = [rule(i, i + 50) for i in range(6)]
        for index, r in enumerate(rules):
            policy.rule_installed(r, now=float(index))
            policy.rule_matched(r, now=float(index) + 1.0)
        assert len(policy._history) <= 3
        # The oldest keys were forgotten and fall back to the default.
        assert policy.timeout_for(rules[0].key) == 60.0
        assert policy.timeout_for(rules[-1].key) == pytest.approx(5.0)  # 1s gap, clamped

    @pytest.mark.parametrize("overrides", [
        {"min_timeout_seconds": 0.0},
        {"max_timeout_seconds": 1.0, "min_timeout_seconds": 2.0},
        {"margin": 0.0},
        {"smoothing": 0.0},
        {"smoothing": 1.5},
        {"max_tracked_keys": 0},
    ])
    def test_rejects_bad_params(self, overrides):
        with pytest.raises(ConfigurationError):
            self.make(**overrides)


class TestRegistry:
    def test_builtins_registered(self):
        names = {entry.name for entry in available_table_policies()}
        assert {"static-idle", "static-hard", "idle-hard-hybrid", "lru", "adaptive"} <= names

    def test_unknown_policy_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="static-idle"):
            get_table_policy("definitely-not-registered")

    def test_params_validation_rejects_unknown_keys(self):
        entry = get_table_policy("adaptive")
        with pytest.raises(ConfigurationError, match="nonsense"):
            entry.make_params({"nonsense": 1})

    def test_build_policy_from_config_name_and_params(self):
        config = FlowTableConfig(policy="adaptive", policy_params={"margin": 3.0})
        policy = build_policy(config)
        assert isinstance(policy, AdaptiveTimeoutPolicy)
        assert policy._params.margin == 3.0

    def test_each_table_gets_its_own_policy_instance(self):
        config = FlowTableConfig(policy="adaptive")
        assert FlowTable(config).policy is not FlowTable(config).policy

    def test_register_and_unregister_custom_policy(self):
        @dataclasses.dataclass(frozen=True)
        class NeverExpireParams:
            pass

        @register_table_policy("test-never-expire", params=NeverExpireParams,
                               description="test-only")
        def build_never(config, params):
            return TableTimeoutPolicy()

        try:
            table = FlowTable(FlowTableConfig(policy="test-never-expire"))
            assert table.policy.expiry_reason(rule(1, 2), now=1e9) is None
            with pytest.raises(ConfigurationError, match="already registered"):
                register_table_policy("test-never-expire", params=NeverExpireParams)(build_never)
        finally:
            unregister_table_policy("test-never-expire")
        with pytest.raises(ConfigurationError):
            get_table_policy("test-never-expire")

    def test_factories_inherit_config_timeouts(self):
        config = FlowTableConfig(idle_timeout_seconds=42.0, hard_timeout_seconds=420.0)
        idle = get_table_policy("static-idle").build(config)
        hybrid = get_table_policy("idle-hard-hybrid").build(config)
        hard = get_table_policy("static-hard").build(config)
        assert idle._idle == 42.0
        assert (hybrid._idle, hybrid._hard) == (42.0, 420.0)
        assert hard._hard == 420.0

    def test_static_hard_falls_back_to_module_default(self):
        hard = get_table_policy("static-hard").build(FlowTableConfig())
        assert hard._hard == DEFAULT_HARD_TIMEOUT_SECONDS


class TestFlowTablePolicyIntegration:
    def test_static_hard_sweep_expires_by_age_not_by_use(self):
        config = FlowTableConfig(idle_timeout_seconds=30.0, hard_timeout_seconds=50.0, policy="static-hard")
        table = FlowTable(config)
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=0.0)
        table.install(key(3, 4), FlowAction(ActionType.DROP), now=40.0)
        table.lookup(key(1, 2), now=49.0)  # a hit does not extend a hard timeout
        assert table.expire(now=50.0) == []
        assert [rule.key for rule in table.expire(now=60.0)] == [key(1, 2)]
        assert (table.stats.hard_timeouts, table.stats.timeouts) == (1, 0)
        assert key(3, 4) in table and len(table) == 1

    def test_hard_timeout_counted_separately(self):
        config = FlowTableConfig(
            idle_timeout_seconds=10.0, hard_timeout_seconds=100.0, policy="idle-hard-hybrid"
        )
        table = FlowTable(config)
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=0.0)
        for t in range(5, 105, 5):  # keep matching so idle never fires
            table.lookup(key(1, 2), now=float(t))
        assert table.lookup(key(1, 2), now=101.0) is None
        assert table.stats.hard_timeouts == 1 and table.stats.timeouts == 0

    def test_removed_listener_fires_with_reason(self):
        removed = []
        table = FlowTable(FlowTableConfig(idle_timeout_seconds=10.0))
        table.removed_listener = lambda r, now, reason: removed.append((r.key, reason))
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=0.0)
        table.expire(now=100.0)
        assert removed == [(key(1, 2), RemovalReason.IDLE_TIMEOUT)]

    def test_reinstall_after_timeout_counted(self):
        table = FlowTable(FlowTableConfig(idle_timeout_seconds=10.0))
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=0.0)
        table.expire(now=100.0)
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=101.0)
        assert table.stats.reinstalls == 1
        # A second install of the same live key is an overwrite, not a re-install.
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=102.0)
        assert table.stats.reinstalls == 1

    def test_overflow_and_peak_occupancy_accounting(self):
        table = FlowTable(FlowTableConfig(capacity=4, eviction_batch=2, policy="lru"))
        for i in range(6):
            table.install(key(i, i + 50), FlowAction(ActionType.DROP), now=float(i))
        # The 5th install found the table full (one overflow, one batch of 2
        # evictions); the 6th fit into the freed space.
        assert table.stats.overflows == 1
        assert table.stats.evictions == 2
        assert table.stats.peak_occupancy == 4
        assert len(table) <= 4


class TestTableSpec:
    def test_apply_overrides_capacity_and_policy(self):
        spec = TableSpec(capacity=256, policy="idle-hard-hybrid",
                         idle_timeout_seconds=1800.0, hard_timeout_seconds=7200.0)
        config = spec.apply(LazyCtrlConfig())
        table = config.flow_table
        assert table.capacity == 256
        assert table.policy == "idle-hard-hybrid"
        assert (table.idle_timeout_seconds, table.hard_timeout_seconds) == (1800.0, 7200.0)

    def test_apply_inherits_unset_fields(self):
        base = LazyCtrlConfig()
        config = TableSpec(policy="lru").apply(base)
        assert config.flow_table.capacity == base.flow_table.capacity
        assert config.flow_table.idle_timeout_seconds == base.flow_table.idle_timeout_seconds
        assert config.flow_table.sweep_interval_seconds == base.flow_table.sweep_interval_seconds

    def test_apply_clamps_eviction_batch_to_small_capacity(self):
        config = TableSpec(capacity=8, policy="lru").apply(LazyCtrlConfig())
        assert config.flow_table.eviction_batch == 8

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            TableSpec(capacity=0)
        with pytest.raises(ConfigurationError):
            TableSpec(policy="  ")

    def test_unknown_policy_fails_at_resolution_not_construction(self):
        spec = TableSpec(policy="third-party-not-loaded")  # lazy, like other specs
        with pytest.raises(ConfigurationError, match="unknown table policy"):
            spec.resolved_params()

    def test_scenario_spec_round_trips_tables(self):
        spec = ScenarioSpec(
            name="with-tables",
            tables=TableSpec(capacity=128, policy="adaptive", params={"margin": 3.0}),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.tables.params == {"margin": 3.0}

    def test_effective_config_folds_overlay(self):
        spec = ScenarioSpec(name="t", tables=TableSpec(capacity=64, policy="lru"))
        assert spec.effective_config().flow_table.capacity == 64
        assert spec.effective_config().flow_table.policy == "lru"

    def test_effective_config_without_tables_is_identity(self):
        spec = ScenarioSpec(name="t")
        assert spec.effective_config() is spec.config
