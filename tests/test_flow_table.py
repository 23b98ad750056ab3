"""Unit tests for the OpenFlow-like flow table."""

import pytest

from repro.common.addresses import MacAddress
from repro.common.config import FlowTableConfig
from repro.common.errors import FlowTableError
from repro.common.packets import FlowKey
from repro.datastructures.flow_table import ActionType, FlowAction, FlowTable


def key(i: int, j: int, tenant: int = 0) -> FlowKey:
    return FlowKey(MacAddress.from_host_index(i), MacAddress.from_host_index(j), tenant)


class TestInstallLookup:
    def test_lookup_hit_after_install(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.ENCAP_TO_SWITCH, 9), now=0.0)
        rule = table.lookup(key(1, 2), now=1.0)
        assert rule is not None and rule.action.target == 9

    def test_lookup_miss_counts(self):
        table = FlowTable()
        assert table.lookup(key(1, 2)) is None
        assert table.stats.misses == 1

    def test_hit_updates_counters(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 1))
        table.lookup(key(1, 2), now=1.0, size_bytes=500)
        table.lookup(key(1, 2), now=2.0, size_bytes=500)
        rule = next(iter(table))
        assert rule.packet_count == 2 and rule.byte_count == 1000
        assert table.stats.hits == 2

    def test_hits_and_misses_counted(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 1))
        table.lookup(key(1, 2))
        table.lookup(key(3, 4))
        assert (table.stats.hits, table.stats.misses) == (1, 1)

    def test_overwrite_same_priority_allowed(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 1), priority=5)
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 2), priority=5)
        assert table.lookup(key(1, 2)).action.target == 2

    def test_lower_priority_overwrite_rejected(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 1), priority=10)
        with pytest.raises(FlowTableError):
            table.install(key(1, 2), FlowAction(ActionType.DROP), priority=1)

    def test_contains_and_len(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.DROP))
        assert key(1, 2) in table and len(table) == 1


class TestTimeoutsAndEviction:
    def test_idle_rule_expires_lazily(self):
        table = FlowTable(FlowTableConfig(idle_timeout_seconds=10.0))
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 1), now=0.0)
        assert table.lookup(key(1, 2), now=100.0) is None
        assert table.stats.timeouts == 1

    def test_active_rule_does_not_expire(self):
        table = FlowTable(FlowTableConfig(idle_timeout_seconds=10.0))
        table.install(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 1), now=0.0)
        assert table.lookup(key(1, 2), now=5.0) is not None
        assert table.lookup(key(1, 2), now=12.0) is not None  # refreshed at t=5

    def test_expire_idle_bulk(self):
        table = FlowTable(FlowTableConfig(idle_timeout_seconds=10.0))
        for i in range(5):
            table.install(key(i, i + 100), FlowAction(ActionType.DROP), now=0.0)
        assert len(table.expire(100.0)) == 5
        assert len(table) == 0

    def test_capacity_eviction(self):
        config = FlowTableConfig(capacity=8, eviction_batch=4)
        table = FlowTable(config)
        for i in range(8):
            table.install(key(i, i + 100), FlowAction(ActionType.DROP), now=float(i))
        table.install(key(99, 199), FlowAction(ActionType.DROP), now=10.0)
        assert len(table) <= config.capacity
        assert table.stats.evictions == 4
        # The oldest entries were evicted, the newest survives.
        assert key(99, 199) in table
        assert key(0, 100) not in table


class TestRuleQueries:
    def test_install_counts(self):
        table = FlowTable()
        table.install(key(1, 2), FlowAction(ActionType.DROP))
        table.install(key(3, 4), FlowAction(ActionType.DROP))
        assert table.stats.installs == 2
