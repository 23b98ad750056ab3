"""Property-based tests (hypothesis) for finite-table invariants.

Three invariants the table-pressure machinery must hold regardless of the
operation sequence:

* occupancy never exceeds capacity, under any mix of installs, lookups and
  sweeps, for every built-in policy;
* table behaviour is a pure function of the operation sequence — two tables
  fed the identical churn end in bit-identical state (deterministic
  eviction order included);
* a huge-capacity table with the default policy is indistinguishable from
  today's defaults, and an eager sweep never changes what a lookup would
  have concluded lazily (the back-compat contract of wiring sweeps into
  the replay tick).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.common.addresses import MacAddress
from repro.common.config import FlowTableConfig
from repro.common.packets import FlowKey
from repro.core.runner import ScenarioRunner
from repro.core.scenario import ScenarioSpec, ScheduleSpec, TraceSpec
from repro.datastructures.flow_table import ActionType, FlowAction, FlowTable
from repro.topology.builder import TopologyProfile


def key(a: int, b: int) -> FlowKey:
    return FlowKey(MacAddress.from_host_index(a), MacAddress.from_host_index(b), 0)


#: One table operation: endpoints, a time step, and which op to perform.
ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.integers(0, 12),
        st.floats(0.0, 120.0, allow_nan=False),
        st.sampled_from(["install", "lookup", "sweep"]),
    ),
    min_size=1,
    max_size=80,
)

POLICY_CONFIGS = [
    FlowTableConfig(capacity=8, eviction_batch=3, idle_timeout_seconds=50.0),
    FlowTableConfig(capacity=8, eviction_batch=3, idle_timeout_seconds=50.0,
                    hard_timeout_seconds=200.0, policy="idle-hard-hybrid"),
    FlowTableConfig(capacity=8, eviction_batch=3, policy="lru"),
    FlowTableConfig(capacity=8, eviction_batch=3, idle_timeout_seconds=50.0,
                    policy="adaptive", policy_params={"max_tracked_keys": 16}),
]


def drive(table: FlowTable, ops) -> None:
    now = 0.0
    for a, b, dt, op in ops:
        now += dt
        if a == b:
            continue
        if op == "install":
            table.install(key(a, b), FlowAction(ActionType.DROP), now=now)
        elif op == "lookup":
            table.lookup(key(a, b), now=now)
        else:
            table.expire(now)


def table_fingerprint(table: FlowTable):
    """Everything observable about a table's end state, in order."""
    return (
        [(r.key, r.installed_at, r.last_matched_at, r.packet_count) for r in table],
        dataclasses.astuple(table.stats),
    )


class TestOccupancyBound:
    @settings(max_examples=40, deadline=None)
    @given(ops_strategy, st.integers(0, len(POLICY_CONFIGS) - 1))
    def test_occupancy_never_exceeds_capacity(self, ops, config_index):
        config = POLICY_CONFIGS[config_index]
        table = FlowTable(config)
        now = 0.0
        for a, b, dt, op in ops:
            now += dt
            if a == b:
                continue
            if op == "install":
                table.install(key(a, b), FlowAction(ActionType.DROP), now=now)
            elif op == "lookup":
                table.lookup(key(a, b), now=now)
            else:
                table.expire(now)
            assert len(table) <= config.capacity
        assert table.stats.peak_occupancy <= config.capacity


class TestDeterminism:
    @settings(max_examples=40, deadline=None)
    @given(ops_strategy, st.integers(0, len(POLICY_CONFIGS) - 1))
    def test_identical_churn_yields_identical_state(self, ops, config_index):
        config = POLICY_CONFIGS[config_index]
        first, second = FlowTable(config), FlowTable(config)
        drive(first, ops)
        drive(second, ops)
        assert table_fingerprint(first) == table_fingerprint(second)


class TestSweepLookupEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(ops_strategy)
    def test_eager_sweep_never_changes_lookup_outcomes(self, ops):
        """Sweeping before every op must not change any hit/miss outcome.

        This is the contract that lets the systems run eager sweeps from the
        periodic tick without perturbing the controller-request counters the
        committed benchmark baselines gate on.
        """
        config = FlowTableConfig(capacity=64, eviction_batch=4, idle_timeout_seconds=50.0)
        lazy, eager = FlowTable(config), FlowTable(config)
        now = 0.0
        for a, b, dt, op in ops:
            now += dt
            if a == b or op == "sweep":
                continue
            eager.expire(now)
            if op == "install":
                lazy.install(key(a, b), FlowAction(ActionType.DROP), now=now)
                eager.install(key(a, b), FlowAction(ActionType.DROP), now=now)
            else:
                lazy_hit = lazy.lookup(key(a, b), now=now) is not None
                eager_hit = eager.lookup(key(a, b), now=now) is not None
                assert lazy_hit == eager_hit
        assert lazy.stats.hits == eager.stats.hits
        assert lazy.stats.misses == eager.stats.misses


class TestInfiniteCapacityEquivalence:
    def test_huge_capacity_default_policy_matches_the_default_table(self):
        """A capacity far beyond reach with the default policy must replay
        bit-identically to the default 4096-entry table."""
        base = ScenarioSpec(
            name="inf-equivalence",
            topology=TopologyProfile(switch_count=8, host_count=60, seed=7),
            traffic=TraceSpec.realistic(total_flows=1500, seed=7),
            systems=("openflow", "lazyctrl-dynamic"),
            schedule=ScheduleSpec(duration_hours=6.0, bucket_hours=2.0),
        )
        huge = dataclasses.replace(
            base,
            config=dataclasses.replace(
                base.config, flow_table=FlowTableConfig(capacity=10**9, policy="static-idle")
            ),
        )
        runner = ScenarioRunner()
        plain_runs = runner.run(base).to_dict()["runs"]
        huge_runs = runner.run(huge).to_dict()["runs"]
        # Only the configured capacity may differ; every replayed counter,
        # series and table statistic must be identical.
        for runs in (plain_runs, huge_runs):
            for run in runs.values():
                assert run["tables"].pop("capacity") in (4096, 10**9)
        assert plain_runs == huge_runs
