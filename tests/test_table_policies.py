"""Unit tests for flow-table timeout/eviction policies, their registry,
and the spec-level finite-table overlay.

Every policy is built the way a table builds it, through
``build_policy(FlowTableConfig(policy=...))``: the four static built-ins are
one rule with different ``(idle, hard)`` bounds.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import MacAddress
from repro.common.config import FlowTableConfig, LazyCtrlConfig
from repro.common.errors import ConfigurationError
from repro.common.packets import FlowKey
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec
from repro.datastructures.flow_table import ActionType, FlowAction, FlowRule, FlowTable
from repro.tables.policies import (
    DEFAULT_HARD_TIMEOUT_SECONDS,
    AdaptiveTimeoutPolicy,
    RemovalReason,
    TableTimeoutPolicy,
)
from repro.tables.registry import (
    available_table_policies,
    build_policy,
    get_table_policy,
    register_table_policy,
    unregister_table_policy,
)

INF = float("inf")


def key(i: int, j: int, tenant: int = 0) -> FlowKey:
    return FlowKey(MacAddress.from_host_index(i), MacAddress.from_host_index(j), tenant)


def rule(i: int, j: int, *, installed_at: float = 0.0, matched_at: float | None = None) -> FlowRule:
    return FlowRule(
        key=key(i, j),
        action=FlowAction(ActionType.DROP),
        installed_at=installed_at,
        last_matched_at=installed_at if matched_at is None else matched_at,
    )


def policy(name: str, **timeouts) -> TableTimeoutPolicy:
    """The ``name`` policy built from a table config with ``timeouts``, as a table would."""
    return build_policy(FlowTableConfig(policy=name, **timeouts))


class TestStaticIdlePolicy:
    def test_expires_after_idle_gap(self):
        idle = policy("static-idle", idle_timeout_seconds=10.0)
        r = rule(1, 2, matched_at=5.0)
        assert idle.expiry_reason(r, now=15.0) is None  # exactly at the limit
        assert idle.expiry_reason(r, now=15.1) is RemovalReason.IDLE_TIMEOUT

    def test_sweep_matches_per_rule_reason(self):
        table = FlowTable(FlowTableConfig(idle_timeout_seconds=10.0))
        for i in range(5):
            table.install(key(i, i + 50), FlowAction(ActionType.DROP), now=float(i))
        per_rule = [r for r in table if table.policy.expiry_reason(r, 12.5) is not None]
        assert [r.installed_at for r in per_rule] == [0.0, 1.0, 2.0]
        assert table.expire(now=12.5) == per_rule
        assert (table.stats.timeouts, table.stats.hard_timeouts) == (len(per_rule), 0)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError, match="^idle_timeout_seconds must be positive$"):
            policy("static-idle", idle_timeout_seconds=0.0)


class TestStaticHardPolicy:
    def test_expires_from_install_time_despite_matches(self):
        hard = policy("static-hard", hard_timeout_seconds=100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=99.0)  # just refreshed
        assert hard.expiry_reason(r, now=100.0) is None
        assert hard.expiry_reason(r, now=100.5) is RemovalReason.HARD_TIMEOUT

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ConfigurationError, match="^hard_timeout_seconds must be positive when set$"):
            policy("static-hard", hard_timeout_seconds=-1.0)


class TestIdleHardHybridPolicy:
    def test_idle_fires_before_hard(self):
        hybrid = policy("idle-hard-hybrid", idle_timeout_seconds=10.0, hard_timeout_seconds=100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=0.0)
        assert hybrid.expiry_reason(r, now=20.0) is RemovalReason.IDLE_TIMEOUT

    def test_hard_caps_constantly_matched_rules(self):
        hybrid = policy("idle-hard-hybrid", idle_timeout_seconds=10.0, hard_timeout_seconds=100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=99.0)
        assert hybrid.expiry_reason(r, now=101.0) is RemovalReason.HARD_TIMEOUT

    def test_hard_wins_when_both_bounds_are_past(self):
        hybrid = policy("idle-hard-hybrid", idle_timeout_seconds=10.0, hard_timeout_seconds=100.0)
        r = rule(1, 2, installed_at=0.0, matched_at=0.0)
        assert hybrid.expiry_reason(r, now=101.0) is RemovalReason.HARD_TIMEOUT

    def test_rejects_hard_below_idle(self):
        with pytest.raises(
            ConfigurationError,
            match=r"^hard_timeout_seconds must be >= idle_timeout_seconds \(50.0 < 100.0\): a rule would",
        ):
            policy("idle-hard-hybrid", idle_timeout_seconds=100.0, hard_timeout_seconds=50.0)

    def test_rejects_non_positive_idle(self):
        with pytest.raises(ConfigurationError, match="^idle_timeout_seconds must be positive$"):
            policy("idle-hard-hybrid", idle_timeout_seconds=0.0, hard_timeout_seconds=50.0)


class TestLruBasePolicy:
    def test_never_expires(self):
        lru = policy("lru")
        assert lru.timeout_bounds() == (INF, INF)
        assert lru.expiry_reason(rule(1, 2, matched_at=0.0), now=1e12) is None
        table = FlowTable(FlowTableConfig(policy="lru"))
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=0.0)
        assert table.expire(now=1e12) == []

    def test_eviction_order_is_least_recently_matched_first(self):
        rules = [rule(i, i + 50, matched_at=float(10 - i)) for i in range(5)]
        ordered = policy("lru").eviction_order(rules)
        assert [r.last_matched_at for r in ordered] == sorted(r.last_matched_at for r in rules)


#: The static built-ins at idle 50 s / hard 200 s, where they take each bound.
STATIC_CONFIGS = {
    "static-idle": FlowTableConfig(idle_timeout_seconds=50.0),
    "static-hard": FlowTableConfig(hard_timeout_seconds=200.0, policy="static-hard"),
    "idle-hard-hybrid": FlowTableConfig(
        idle_timeout_seconds=50.0, hard_timeout_seconds=200.0, policy="idle-hard-hybrid"
    ),
    "lru": FlowTableConfig(policy="lru"),
}


class TestOneExpiryRule:
    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(STATIC_CONFIGS)),
        # Whole-second gaps, often 25/50/100 s, land exactly on the 50 s / 200 s
        # bounds as well as before and past them.
        gaps=st.lists(
            st.sampled_from([25.0, 50.0, 100.0]) | st.integers(0, 120).map(float), min_size=1, max_size=12
        ),
    )
    def test_lookup_hits_exactly_when_the_rule_stays_alive(self, name, gaps):
        """On a resident rule, a lookup at ``t`` hits iff ``stays_alive(rule, t, 0.0, t)``."""
        table = FlowTable(STATIC_CONFIGS[name])
        table.install(key(1, 2), FlowAction(ActionType.DROP), now=0.0)
        now = 0.0
        for gap in gaps:
            now += gap
            resident = table.peek(key(1, 2))
            if resident is None:
                table.install(key(1, 2), FlowAction(ActionType.DROP), now=now)
                continue
            alive = table.stays_alive(resident, now, 0.0, now)
            assert (table.lookup(key(1, 2), now=now) is not None) == alive


class TestAdaptivePolicy:
    def make(self, **overrides) -> AdaptiveTimeoutPolicy:
        params = {
            "min_timeout_seconds": 5.0,
            "max_timeout_seconds": 300.0,
            "margin": 2.0,
            "smoothing": 1.0,  # pure last-gap, easy to reason about
            "max_tracked_keys": 64,
            **overrides,
        }
        return build_policy(FlowTableConfig(policy="adaptive", idle_timeout_seconds=60.0, policy_params=params))

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

        def bounds(name):
            return build_policy(dataclasses.replace(config, policy=name)).timeout_bounds()

        assert bounds("static-idle") == (42.0, INF)
        assert bounds("idle-hard-hybrid") == (42.0, 420.0)
        assert bounds("static-hard") == (INF, 420.0)

    def test_static_hard_falls_back_to_module_default(self):
        assert policy("static-hard").timeout_bounds() == (INF, DEFAULT_HARD_TIMEOUT_SECONDS)

    @pytest.mark.parametrize("name", ["static-idle", "static-hard", "idle-hard-hybrid", "lru"])
    def test_static_policies_take_no_params(self, name):
        """Their timeouts have one home, the table config; params are ``adaptive``'s alone."""
        config = FlowTableConfig(policy=name, policy_params={"idle_timeout_seconds": 5.0})
        message = f"^table policy '{name}' takes no params, got 'idle_timeout_seconds'$"
        with pytest.raises(ConfigurationError, match=message):
            build_policy(config)
        with pytest.raises(ConfigurationError, match=message):
            ScenarioRunner().run(ScenarioSpec(name="x", config=LazyCtrlConfig(flow_table=config)))


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


class TestFlowTableSettings:
    """Every table setting lives in ``config.flow_table``; a legacy ``tables`` overlay folds there."""

    @staticmethod
    def legacy(tables, flow_table=None):
        data = {"name": "legacy", "tables": tables}
        if flow_table is not None:
            data["config"] = {"flow_table": flow_table}
        return ScenarioSpec.from_dict(data).config.flow_table

    def test_legacy_overlay_overrides_capacity_and_policy(self):
        table = self.legacy({"capacity": 256, "policy": "idle-hard-hybrid",
                             "idle_timeout_seconds": 1800.0, "hard_timeout_seconds": 7200.0})
        assert table.capacity == 256
        assert table.policy == "idle-hard-hybrid"
        assert (table.idle_timeout_seconds, table.hard_timeout_seconds) == (1800.0, 7200.0)

    def test_legacy_overlay_inherits_unset_and_null_fields(self):
        base = FlowTableConfig()
        table = self.legacy({"policy": "lru", "capacity": None, "hard_timeout_seconds": None})
        assert table.capacity == base.capacity
        assert table.idle_timeout_seconds == base.idle_timeout_seconds
        assert table.hard_timeout_seconds == base.hard_timeout_seconds

    def test_legacy_overlay_replaces_policy_and_params_as_it_always_did(self):
        # The overlay's policy defaulted to static-idle and always won.
        table = self.legacy(
            {"capacity": 128}, flow_table={"policy": "adaptive", "policy_params": {"margin": 3.0}}
        )
        assert (table.capacity, table.policy, table.policy_params) == (128, "static-idle", {})

    def test_resized_clamps_eviction_batch_to_small_capacity(self):
        assert FlowTableConfig(policy="lru").resized(8).eviction_batch == 8
        assert FlowTableConfig(eviction_batch=16).resized(128).eviction_batch == 16
        assert self.legacy({"capacity": 8, "policy": "lru"}).eviction_batch == 8

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigurationError):
            FlowTableConfig().resized(0)
        with pytest.raises(ConfigurationError):
            FlowTableConfig(policy="  ")
        with pytest.raises(ConfigurationError):
            self.legacy({"capacity": 0})
        with pytest.raises(ConfigurationError):
            self.legacy({"policy": "  "})
        with pytest.raises(ConfigurationError, match="spec.tables.capacity"):
            self.legacy({"capacity": "big"})
        with pytest.raises(ConfigurationError, match="unknown key 'capacty'"):
            self.legacy({"capacty": 8})

    def test_unknown_policy_fails_at_resolution_not_construction(self):
        spec = ScenarioSpec(  # lazy, like other specs
            name="t", config=LazyCtrlConfig(flow_table=FlowTableConfig(policy="third-party-not-loaded"))
        )
        with pytest.raises(ConfigurationError, match="unknown table policy"):
            ScenarioRunner().run(spec)  # before any trace is generated

    def test_scenario_spec_round_trips_tables(self):
        spec = ScenarioSpec(
            name="with-tables",
            config=LazyCtrlConfig(
                flow_table=FlowTableConfig(
                    capacity=128, policy="adaptive", policy_params={"margin": 3.0}
                )
            ),
        )
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.config.flow_table.policy_params == {"margin": 3.0}
        assert "tables" not in spec.to_dict()

    def test_effective_config_is_the_config(self):
        spec = ScenarioSpec(name="t")
        assert spec.effective_config() is spec.config
