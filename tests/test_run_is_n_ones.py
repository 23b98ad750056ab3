"""The run is ``n`` ones: the run forms at their owners against the per-call forms.

The data path is written once, for a run of ``n`` back-to-back packets of one
flow key (``FlowTable.stays_alive``/``account_run``, ``GroupFib.peek``/
``account_queries``, ``EdgeSwitch.classify_run``/``apply_run``); the per-packet
calls (``lookup``, ``query``, ``forward_key``) are the run of one, and
``process_packet`` on a data packet is ``forward_key`` presented as a decision.
These properties hold the contract where it lives: a run either is declared
undecidable, having changed nothing, or leaves exactly what ``n`` single calls
leave — and asking alone never changes anything.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addresses import IpAddress, MacAddress
from repro.common.config import FlowTableConfig
from repro.common.packets import FlowKey, make_data_packet
from repro.dataplane.decisions import ForwardingOutcome
from repro.dataplane.edge_switch import LazyCtrlEdgeSwitch
from repro.dataplane.openflow_switch import OpenFlowEdgeSwitch
from repro.datastructures.fib import GroupFib
from repro.datastructures.flow_table import ActionType, FlowAction, FlowTable

#: Idle 50 s / hard 200 s, so arrival gaps of up to 120 s cross both bounds.
TABLE_CONFIGS = {
    "static-idle": FlowTableConfig(idle_timeout_seconds=50.0),
    "static-hard": FlowTableConfig(hard_timeout_seconds=200.0, policy="static-hard"),
    "idle-hard-hybrid": FlowTableConfig(
        idle_timeout_seconds=50.0, hard_timeout_seconds=200.0, policy="idle-hard-hybrid"
    ),
    "lru": FlowTableConfig(policy="lru"),
    "adaptive": FlowTableConfig(idle_timeout_seconds=50.0, policy="adaptive"),
}

#: Time from the rule's install to the first arrival, then the arrival gaps.
arrivals_strategy = st.tuples(
    st.floats(0.0, 120.0, allow_nan=False),
    st.lists(st.floats(0.0, 120.0, allow_nan=False), min_size=0, max_size=6),
)


def mac(i: int) -> MacAddress:
    return MacAddress.from_host_index(i)


def key(a: int, b: int) -> FlowKey:
    return FlowKey(mac(a), mac(b), 0)


def arrival_times(arrivals, installed_at=10.0):
    head, gaps = arrivals
    times = [installed_at + head]
    for gap in gaps:
        times.append(times[-1] + gap)
    return times, max(gaps, default=0.0)


def table_state(table: FlowTable):
    return [dataclasses.asdict(rule) for rule in table], dataclasses.asdict(table.stats)


class TestFlowTableRun:
    @pytest.mark.parametrize("policy", TABLE_CONFIGS)
    @given(arrivals=arrivals_strategy, size_bytes=st.integers(0, 9000))
    @settings(max_examples=60, deadline=None)
    def test_refresh_times_n_is_n_lookups_or_undecidable(self, policy, arrivals, size_bytes):
        times, max_gap = arrival_times(arrivals)
        run, single = FlowTable(TABLE_CONFIGS[policy]), FlowTable(TABLE_CONFIGS[policy])
        for table in (run, single):
            table.install(key(1, 2), FlowAction(ActionType.ENCAP_TO_SWITCH, 7), now=10.0)
            table.install(key(3, 4), FlowAction(ActionType.FORWARD_LOCAL, 1), now=10.0)
        before = table_state(run)

        rule = run.peek(key(1, 2))
        alive = run.stays_alive(rule, times[0], max_gap, times[-1])
        assert table_state(run) == before, "asking changed the table"
        hits = [single.lookup(key(1, 2), now=now, size_bytes=size_bytes) for now in times]
        if policy == "adaptive":
            assert not alive  # a stateful policy is never decidable in bulk
        if not alive:
            return  # undecidable, and nothing changed
        # Decided: never a wrong hit, and the same end state.
        assert all(hit is not None for hit in hits)
        run.account_run(rule, len(times), times[-1], size_bytes)
        assert table_state(run) == table_state(single)

    @given(arrivals=arrivals_strategy)
    @settings(max_examples=40, deadline=None)
    def test_a_run_that_crosses_a_bound_is_undecidable(self, arrivals):
        """Soundness from the other side: whenever a single lookup of the run
        would expire the rule, the run form must have declined."""
        times, max_gap = arrival_times(arrivals)
        config = TABLE_CONFIGS["idle-hard-hybrid"]
        run, single = FlowTable(config), FlowTable(config)
        for table in (run, single):
            table.install(key(1, 2), FlowAction(ActionType.ENCAP_TO_SWITCH, 7), now=10.0)
        expired = any(single.lookup(key(1, 2), now=now) is None for now in times)
        alive = run.stays_alive(run.peek(key(1, 2)), times[0], max_gap, times[-1])
        assert alive == (not expired)

    @given(n=st.integers(1, 9))
    def test_a_run_of_misses_is_n_missing_lookups(self, n):
        run, single = FlowTable(), FlowTable()
        assert run.peek(key(5, 6)) is None
        run.account_run(None, n, 99.0, 1500)
        for _ in range(n):
            assert single.lookup(key(5, 6), now=99.0, size_bytes=1500) is None
        assert table_state(run) == table_state(single)


class SmallMemoGroupFib(GroupFib):
    """A G-FIB whose memo fills up within a handful of distinct MACs."""

    QUERY_CACHE_LIMIT = 6


def gfib_state(gfib: GroupFib):
    return gfib.query_count, gfib.query_cache_hits, gfib.version, list(gfib._query_cache.items())


class TestGroupFibRun:
    @given(
        runs=st.lists(st.tuples(st.integers(0, 14), st.integers(1, 5)), min_size=1, max_size=12)
    )
    @settings(max_examples=80, deadline=None)
    def test_accounting_n_queries_is_n_queries(self, runs):
        """... starting from a memo one entry short of its wholesale clear, so
        the first new MAC of the sequence tips it over."""
        run, single = SmallMemoGroupFib(), SmallMemoGroupFib()
        for gfib in (run, single):
            gfib.install_peer(1, [mac(i) for i in range(0, 6)])
            gfib.install_peer(2, [mac(i) for i in range(4, 10)])
            for stranger in range(100, 100 + gfib.QUERY_CACHE_LIMIT - 1):
                gfib.query(mac(stranger))
            assert gfib.cache_room() == 1
        for host, n in runs:
            before = gfib_state(run)
            peers = run.peek(mac(host))
            assert gfib_state(run) == before, "peek changed the G-FIB"
            run.account_queries(mac(host), peers, n)
            assert [single.query(mac(host)) for _ in range(n)] == [peers] * n
            assert gfib_state(run) == gfib_state(single)


def make_switch(kind: str, policy: str):
    cls = LazyCtrlEdgeSwitch if kind == "lazyctrl" else OpenFlowEdgeSwitch
    switch = cls(
        0,
        underlay_ip=IpAddress.from_switch_index(0),
        management_mac=MacAddress.from_switch_index(0),
        flow_table_config=TABLE_CONFIGS[policy],
    )
    for host in (1, 2, 3):
        switch.attach_host(mac(host), port=host, tenant_id=0)
    if kind == "lazyctrl":
        switch.join_group(1)
        switch.install_peer_lfib(5, [mac(10), mac(11)])
        switch.install_peer_lfib(6, [mac(11), mac(12)])  # mac(11): two candidates
    # One rule per action kind, each towards its own destination.
    switch.install_flow_rule(key(1, 20), FlowAction(ActionType.ENCAP_TO_SWITCH, 7), now=10.0)
    switch.install_flow_rule(key(1, 2), FlowAction(ActionType.FORWARD_LOCAL, 2), now=10.0)
    switch.install_flow_rule(key(1, 21), FlowAction(ActionType.DROP), now=10.0)
    switch.install_flow_rule(key(1, 22), FlowAction(ActionType.SEND_TO_CONTROLLER), now=10.0)
    return switch


def switch_state(switch):
    gfib = switch.gfib
    return {
        "table": table_state(switch.flow_table),
        "lfib": switch.lfib.snapshot(),
        "packets_processed": switch.packets_processed,
        "packets_to_controller": switch.packets_to_controller,
        "duplicate_deliveries": switch.duplicate_deliveries,
        "false_positive_drops": getattr(switch, "false_positive_drops", 0),
        "gfib": None if gfib is None else gfib_state(gfib),
    }


#: Destinations: ruled (20, 2, 21, 22), local (3), one / two G-FIB candidates
#: (10, 11), and unknown to everyone (30).
DESTINATIONS = (20, 2, 21, 22, 3, 10, 11, 30)


class TestSwitchRun:
    @pytest.mark.parametrize("policy", ("static-idle", "idle-hard-hybrid", "lru", "adaptive"))
    @pytest.mark.parametrize("kind", ("lazyctrl", "openflow"))
    @given(dst=st.sampled_from(DESTINATIONS), arrivals=arrivals_strategy)
    @settings(max_examples=60, deadline=None)
    def test_classify_then_apply_n_is_n_process_packets(self, kind, policy, dst, arrivals):
        times, max_gap = arrival_times(arrivals)
        run, single = make_switch(kind, policy), make_switch(kind, policy)
        before = switch_state(run)
        verdict = run.classify_run(key(1, dst), times[0], max_gap, times[-1])
        assert switch_state(run) == before, "classifying changed the switch"
        if verdict is None:
            assert key(1, dst) in run.flow_table  # only a resident rule is undecidable
            return

        run.apply_run(verdict, len(times), times[-1])
        decisions = [
            single.process_packet(make_data_packet(mac(1), mac(dst), 0, created_at=now), now)
            for now in times
        ]
        assert switch_state(run) == switch_state(single)
        for decision in decisions:
            assert decision.outcome is verdict.outcome
            assert decision.local_port == (
                verdict.rule.action.target
                if verdict.rule is not None and verdict.rule.action.kind is ActionType.FORWARD_LOCAL
                else verdict.local_port
            )
            if verdict.outcome is ForwardingOutcome.INTRA_GROUP_FORWARD:
                assert decision.target_switches == verdict.target_switches
                assert decision.duplicate_count == len(verdict.target_switches) - 1

    @pytest.mark.parametrize("kind", ("lazyctrl", "openflow"))
    def test_every_decidable_outcome_is_reached(self, kind):
        """The property above is not vacuous: each verdict kind occurs."""
        switch = make_switch(kind, "lru")
        outcomes = {
            dst: getattr(switch.classify_run(key(1, dst), 11.0, 0.0, 11.0), "outcome", None)
            for dst in DESTINATIONS
        }
        intra = (
            ForwardingOutcome.INTRA_GROUP_FORWARD
            if kind == "lazyctrl"
            else ForwardingOutcome.SENT_TO_CONTROLLER
        )
        assert outcomes == {
            20: ForwardingOutcome.FLOW_TABLE_HIT,
            2: ForwardingOutcome.FLOW_TABLE_HIT,
            21: None,  # drop rule
            22: None,  # send-to-controller rule
            3: ForwardingOutcome.LOCAL_DELIVERY,
            10: intra,
            11: intra,
            30: ForwardingOutcome.SENT_TO_CONTROLLER,
        }


class TestKeyStepIsThePacketStep:
    """``forward_key`` on a flow key ≡ ``process_packet`` on the data packet made of it."""

    @pytest.mark.parametrize("policy", ("static-idle", "idle-hard-hybrid", "lru", "adaptive"))
    @pytest.mark.parametrize("kind", ("lazyctrl", "openflow"))
    @given(
        dsts=st.lists(st.sampled_from(DESTINATIONS), min_size=1, max_size=7),
        arrivals=arrivals_strategy,
        size_bytes=st.sampled_from((64, 1500, 9000)),
        fails_from=st.none() | st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_verdict_and_same_switch_afterwards(
        self, kind, policy, dsts, arrivals, size_bytes, fails_from
    ):
        """A walk over mixed destinations — every rule kind, an expiring rule,
        local, G-FIB and unknown hosts — on a switch that may fail part-way."""
        times, _ = arrival_times(arrivals)
        by_key, by_packet = make_switch(kind, policy), make_switch(kind, policy)
        for step, (dst, now) in enumerate(zip(dsts, times)):
            if step == fails_from:
                by_key.failed = by_packet.failed = True
            verdict = by_key.forward_key(key(1, dst), now, size_bytes)
            decision = by_packet.process_packet(
                make_data_packet(mac(1), mac(dst), 0, size_bytes=size_bytes, created_at=now), now
            )
            assert verdict.key == key(1, dst)
            assert decision.outcome is verdict.outcome
            assert decision.target_switches == (
                verdict.target_switches
                if verdict.rule is None
                else tuple(
                    [verdict.rule.action.target]
                    if verdict.rule.action.kind is ActionType.ENCAP_TO_SWITCH
                    else []
                )
            )
            assert decision.duplicate_count == max(0, len(verdict.target_switches) - 1)
            assert decision.local_port == (
                verdict.rule.action.target
                if verdict.rule is not None and verdict.rule.action.kind is ActionType.FORWARD_LOCAL
                else verdict.local_port
            )
            assert switch_state(by_key) == switch_state(by_packet)

    @pytest.mark.parametrize("kind", ("lazyctrl", "openflow"))
    def test_every_outcome_of_the_key_step_is_reached(self, kind):
        switch = make_switch(kind, "lru")
        outcomes = {dst: switch.forward_key(key(1, dst), 11.0).outcome for dst in DESTINATIONS}
        intra = (
            ForwardingOutcome.INTRA_GROUP_FORWARD
            if kind == "lazyctrl"
            else ForwardingOutcome.SENT_TO_CONTROLLER
        )
        assert outcomes == {
            20: ForwardingOutcome.FLOW_TABLE_HIT,
            2: ForwardingOutcome.FLOW_TABLE_HIT,
            21: ForwardingOutcome.DROPPED_NO_RULE,  # drop rule
            22: ForwardingOutcome.SENT_TO_CONTROLLER,  # send-to-controller rule
            3: ForwardingOutcome.LOCAL_DELIVERY,
            10: intra,
            11: intra,
            30: ForwardingOutcome.SENT_TO_CONTROLLER,
        }
        assert switch.packets_to_controller == (2 if kind == "lazyctrl" else 4)
        switch.failed = True
        failed = switch.forward_key(key(1, 3), 12.0)
        assert failed.outcome is ForwardingOutcome.DROPPED_NO_RULE and failed.rule is None
