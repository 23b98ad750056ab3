"""The run is ``n`` ones: the run forms at their owners against the per-call forms.

The data path is written once, for a run of ``n`` back-to-back packets of one
flow key (``FlowTable.stays_alive``/``account_run``, ``GroupFib.peek``/
``account_queries``, ``EdgeSwitch.classify_run``/``apply_run``); the per-packet
calls (``lookup``, ``query``, ``forward_key``) are the run of one, and
``forward_key`` is Fig. 5's packet step spelled with ``lookup`` and ``query``.
These properties hold the contract where it lives: a run either is declared
undecidable, having changed nothing, or leaves exactly what ``n`` single calls
leave — and asking alone never changes anything.

An L-FIB's derived forms follow the same rule: one Bloom summary installed in
``n`` G-FIBs is ``n`` × ``install_peer(peer, macs)``, the memoized bit
positions are the Kirsch–Mitzenmacher formula, and the memoized wire tuple is
the sorted table after every mutation.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bandwidth import meter
from repro.common.addresses import MacAddress
from repro.common.config import FlowTableConfig
from repro.common.packets import FlowKey
from repro.dataplane.decisions import ForwardingOutcome
from repro.dataplane.edge_switch import EdgeSwitch, LazyCtrlEdgeSwitch
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
    cls = LazyCtrlEdgeSwitch if kind == "lazyctrl" else EdgeSwitch
    switch = cls(
        0,
        management_mac=MacAddress.from_switch_index(0),
        flow_table_config=TABLE_CONFIGS[policy],
    )
    for host in (1, 2, 3):
        switch.attach_host(mac(host), port=host, tenant_id=0)
    if kind == "lazyctrl":
        switch.join_group(1)
        switch.gfib.install_peer(5, [mac(10), mac(11)])
        switch.gfib.install_peer(6, [mac(11), mac(12)])  # mac(11): two candidates
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
        "lfib": {entry.mac: entry for entry in switch.lfib},
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
    @given(
        dst=st.sampled_from(DESTINATIONS),
        arrivals=arrivals_strategy,
        size_bytes=st.sampled_from((64, 1500, 9000)),
        fails_from=st.none() | st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_classify_then_apply_n_is_n_forward_keys(
        self, kind, policy, dst, arrivals, size_bytes, fails_from
    ):
        """The run up to ``fails_from`` is applied at once; from there the
        switch is failed, and the rest of the packets are dropped one by one."""
        times, _ = arrival_times(arrivals)
        head = times if fails_from is None else times[:fails_from]
        run, single = make_switch(kind, policy), make_switch(kind, policy)
        if head:
            max_gap = max((b - a for a, b in zip(head, head[1:])), default=0.0)
            before = switch_state(run)
            verdict = run.classify_run(key(1, dst), head[0], max_gap, head[-1])
            assert switch_state(run) == before, "classifying changed the switch"
            if verdict is None:
                assert key(1, dst) in run.flow_table  # only a resident rule is undecidable
                return
            run.apply_run(verdict, len(head), head[-1], size_bytes)
            for now in head:
                single_verdict = single.forward_key(key(1, dst), now, size_bytes)
                assert single_verdict.outcome is verdict.outcome
                assert single_verdict.key == verdict.key
                assert single_verdict.local_port == verdict.local_port
                assert single_verdict.target_switches == verdict.target_switches
                assert (single_verdict.rule is None) == (verdict.rule is None)
        if fails_from is not None:
            run.failed = single.failed = True
            for now in times[len(head):]:
                for switch in (run, single):
                    dropped = switch.forward_key(key(1, dst), now, size_bytes)
                    assert dropped.outcome is ForwardingOutcome.DROPPED_NO_RULE
                    assert dropped.rule is None
        assert switch_state(run) == switch_state(single)

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


def packet_step(switch, key, now, size_bytes):
    """Lines 1-21 of Fig. 5 for one data packet, with the per-call forms.

    Flow table ``lookup``, then the L-FIB, then G-FIB ``query``, else a
    ``Packet_In``: ``(outcome, rule, local_port, target_switches)``.
    """
    switch.packets_processed += 1
    if switch.failed:
        return ForwardingOutcome.DROPPED_NO_RULE, None, None, ()
    rule = switch.flow_table.lookup(key, now=now, size_bytes=size_bytes)
    if rule is not None:
        if rule.action.kind is ActionType.DROP:
            return ForwardingOutcome.DROPPED_NO_RULE, rule, None, ()
        if rule.action.kind is ActionType.SEND_TO_CONTROLLER:
            switch.packets_to_controller += 1
            return ForwardingOutcome.SENT_TO_CONTROLLER, rule, None, ()
        return ForwardingOutcome.FLOW_TABLE_HIT, rule, None, ()
    entry = switch.lfib.lookup(key.dst_mac)
    if entry is not None:
        return ForwardingOutcome.LOCAL_DELIVERY, None, entry.port, ()
    candidates = () if switch.gfib is None else switch.gfib.query(key.dst_mac)
    if candidates:
        switch.duplicate_deliveries += len(candidates) - 1
        return ForwardingOutcome.INTRA_GROUP_FORWARD, None, None, candidates
    switch.packets_to_controller += 1
    return ForwardingOutcome.SENT_TO_CONTROLLER, None, None, ()


class TestKeyStepIsThePacketStep:
    """``forward_key`` on a flow key ≡ Fig. 5's packet step written out per call."""

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
        by_key, by_step = make_switch(kind, policy), make_switch(kind, policy)
        for step, (dst, now) in enumerate(zip(dsts, times)):
            if step == fails_from:
                by_key.failed = by_step.failed = True
            verdict = by_key.forward_key(key(1, dst), now, size_bytes)
            outcome, rule, local_port, targets = packet_step(by_step, key(1, dst), now, size_bytes)
            assert verdict.key == key(1, dst)
            assert verdict.outcome is outcome
            assert (None if verdict.rule is None else dataclasses.asdict(verdict.rule)) == (
                None if rule is None else dataclasses.asdict(rule)
            )
            assert verdict.local_port == local_port
            assert verdict.target_switches == targets
            assert switch_state(by_key) == switch_state(by_step)

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


# -- the link meter: a run of flows is n observations ----------------------------

#: Tracked uplinks 1–3 (thin enough to cross 1.0) and an untracked switch 9.
METER_SWITCHES = (1, 2, 3, 9)

#: Integer-valued, fractional (boundaries whose quotient rounds), and wide.
METER_WINDOWS = (10.0, 1.1, 300.0)

#: (gap to the previous start, duration, bytes, src, dst): constant rates,
#: inside one window and across several.
metered_flows_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 8.0),
        st.floats(0.01, 45.0),
        st.integers(1, 400_000),
        st.sampled_from(METER_SWITCHES),
        st.sampled_from(METER_SWITCHES),
    ).filter(lambda flow: flow[3] != flow[4]),
    min_size=1,
    max_size=12,
)


def metered_columns(flows):
    """The parallel sequences a chunk would hold, and the records of the same flows."""
    from repro.traffic.flow import FlowRecord

    now = 0.0
    records, src_ids, dst_ids = [], [], []
    for position, (gap, duration, byte_count, src, dst) in enumerate(flows):
        now += gap
        records.append(FlowRecord(now, position, 1, 2, 10, byte_count, duration))
        src_ids.append(src)
        dst_ids.append(dst)
    columns = (
        [record.start_time for record in records],
        [record.duration for record in records],
        [record.byte_count for record in records],
        src_ids,
        dst_ids,
    )
    return records, columns


def meter_state(meter, horizon):
    return (
        # Key order too: ``usage`` folds overflow windows in dict order.
        {switch_id: list(windows.items()) for switch_id, windows in meter._bytes.items()},
        set(meter._crossed),
        meter.usage(horizon),
        meter.usage(horizon / 4),
    )


class TestLinkMeterRun:
    @pytest.mark.parametrize("window_seconds", METER_WINDOWS)
    @given(flows=metered_flows_strategy)
    @settings(max_examples=80, deadline=None)
    def test_account_run_is_n_observes(self, window_seconds, flows):
        from repro.bandwidth.meter import LinkUtilizationMeter

        capacities = {1: 0.05, 2: 0.05, 3: 1.0}
        run = LinkUtilizationMeter(capacities, window_seconds=window_seconds)
        single = LinkUtilizationMeter(capacities, window_seconds=window_seconds)
        records, columns = metered_columns(flows)

        utilizations, crossings = run.account_run(*columns)
        observations = [
            single.observe(record, src, dst, record.start_time)
            for record, src, dst in zip(records, columns[3], columns[4])
        ]
        assert utilizations == [(seen.src_utilization, seen.dst_utilization) for seen in observations]
        assert crossings == [
            (record.start_time, switch_id, utilization)
            for record, seen in zip(records, observations)
            for switch_id, utilization in seen.newly_congested
        ]
        horizon = records[-1].start_time + 50.0
        assert meter_state(run, horizon) == meter_state(single, horizon)

    def test_nows_default_to_the_start_times(self):
        from repro.bandwidth.meter import LinkUtilizationMeter

        columns = ([0.0, 4.0, 9.5], [1.0, 30.0, 2.0], [90_000, 50_000, 70_000], [1, 2, 1], [2, 9, 3])
        bare = LinkUtilizationMeter({1: 0.05, 2: 0.05, 3: 1.0}, window_seconds=10.0)
        full = LinkUtilizationMeter({1: 0.05, 2: 0.05, 3: 1.0}, window_seconds=10.0)
        assert bare.account_run(*columns) == full.account_run(*columns, nows=columns[0])
        assert meter_state(bare, 60.0) == meter_state(full, 60.0)
        # ... and the run is not vacuous: a link crossed, a flow spanned windows.
        assert bare._crossed and len(bare._bytes[2]) > 1


class RecordingListener:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


def metered_plane(window_seconds):
    from repro.bandwidth.spec import LinkCapacitySpec
    from repro.common.config import LazyCtrlConfig
    from repro.core.system import OpenFlowSystem
    from repro.obs.tracer import EventTracer
    from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

    network = build_multi_tenant_datacenter(TopologyProfile(switch_count=4, host_count=16, seed=3))
    LinkCapacitySpec(uplink_mbps=0.05).apply_network(network)
    with mock.patch.object(meter, "WINDOW_SECONDS", window_seconds):
        plane = OpenFlowSystem(network, config=queued(LazyCtrlConfig()))
    listener = RecordingListener()
    plane.set_tracer(EventTracer(system="openflow", listeners=[listener]))
    return plane, listener


class TestPlaneLinkRun:
    @pytest.mark.parametrize("window_seconds", METER_WINDOWS[:2])
    @given(flows=metered_flows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_link_penalties_is_n_congestion_penalties(self, window_seconds, flows):
        """Switch 9 does not exist on the 4-switch plane: it reads as untracked."""
        run, run_events = metered_plane(window_seconds)
        single, single_events = metered_plane(window_seconds)
        records, columns = metered_columns(flows)

        penalties = run.link_penalties_ms(*columns)
        assert penalties == [single.congestion_penalty_ms(*row) for row in zip(*columns)]
        assert run.counters == single.counters
        assert run_events.events == single_events.events
        horizon = records[-1].start_time + 50.0
        assert meter_state(run.link_meter, horizon) == meter_state(single.link_meter, horizon)

    def test_the_property_is_not_vacuous(self):
        plane, listener = metered_plane(10.0)
        penalties = plane.link_penalties_ms(
            [0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [90_000, 10, 10], [1, 1, 0], [2, 3, 3]
        )
        assert plane.counters.congested_flows == 2
        assert [event.switch_id for event in listener.events] == [1, 2]
        assert penalties[0] > penalties[2] > 0.0

    def test_an_intra_switch_flow_or_a_meterless_plane_costs_nothing(self):
        from repro.core.system import OpenFlowSystem
        from repro.topology.network import DataCenterNetwork

        plane, listener = metered_plane(10.0)
        assert plane.congestion_penalty_ms(0.0, 1.0, 10**9, 1, 1) == 0.0
        assert not any(plane.link_meter._bytes.values()) and not listener.events
        assert plane.congestion_penalty_ms(0.0, 1.0, 10**9, 1, 2) > 0.0
        bare = OpenFlowSystem(DataCenterNetwork())
        assert bare.link_meter is None and bare.congestion_penalty_ms(0.0, 1.0, 10**9, 1, 2) == 0.0


# -- an L-FIB summarized once: one summary in n G-FIBs is n install_peers --------------

#: Two peers' L-FIBs (host indices, overlapping ranges so some MACs have two
#: candidates), re-disseminated in any order, any number of times.
disseminations_strategy = st.lists(
    st.tuples(st.sampled_from((5, 6)), st.lists(st.integers(0, 40), max_size=12, unique=True)),
    min_size=1,
    max_size=5,
)


def shared_state(gfib: GroupFib):
    return {
        "state": gfib_state(gfib),
        "storage": gfib.storage_bytes(),
        "peers": list(gfib._filters),
        "answers": [gfib.matching_peers(mac(i)) for i in range(0, 60)],  # residents, then strangers
        "exact": {peer: set(macs) for peer, macs in gfib._exact.items()},
        "bits": {peer: bytes(bloom._bits) for peer, bloom in gfib._filters.items()},
        "installs": gfib.peer_installs,
    }


class TestSharedSummary:
    @given(n=st.integers(1, 5), disseminations=disseminations_strategy)
    @settings(max_examples=80, deadline=None)
    def test_one_summary_in_n_gfibs_is_n_install_peers(self, n, disseminations):
        source = GroupFib()
        shared = [GroupFib(track_exact=True) for _ in range(n)]
        twins = [GroupFib(track_exact=True) for _ in range(n)]
        for peer, hosts in disseminations:
            macs = [mac(i) for i in hosts]
            for gfib in shared + twins:
                gfib.query(mac(3)), gfib.query(mac(3)), gfib.query(mac(50))  # a warm memo
            counted = [(gfib.query_count, gfib.query_cache_hits) for gfib in shared]

            summary = source.summarize(macs)
            for gfib in shared:
                gfib.install_summary(peer, summary, macs)
            for gfib in twins:
                gfib.install_peer(peer, macs)

            assert all(gfib._filters[peer] is summary for gfib in shared)
            assert all(not gfib._query_cache for gfib in shared), "an install empties the memo"
            assert counted == [(gfib.query_count, gfib.query_cache_hits) for gfib in shared]
            for holder, twin in zip(shared, twins):
                assert shared_state(holder) == shared_state(twin)
        assert source.summaries_built == len(disseminations)
        assert all(twin.summaries_built == twin.peer_installs == len(disseminations) for twin in twins)
        assert all(gfib.summaries_built == 0 for gfib in shared)

    def test_a_summary_of_another_geometry_is_rejected(self):
        from repro.common.errors import ConfigurationError
        from repro.datastructures.bloom import BloomFilter

        gfib = GroupFib(track_exact=True)
        gfib.install_peer(5, [mac(1)])
        before = shared_state(gfib)
        small = BloomFilter(64, 2)
        small.add(mac(2).to_bytes())
        with pytest.raises(ConfigurationError, match="64-bit/2-hash"):
            gfib.install_summary(6, small, [mac(2)])
        assert shared_state(gfib) == before


# -- the memoized bit positions are the Kirsch–Mitzenmacher formula ---------------------


def km_positions(data: bytes, size_bits: int, hash_count: int):
    """``(h1 + i·h2) mod m`` over the two halves of a 16-byte blake2b digest."""
    import hashlib

    digest = hashlib.blake2b(data, digest_size=16).digest()
    h1, h2 = int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:], "big")
    return [(h1 + i * h2) % size_bits for i in range(hash_count)]


#: sha256 of the bit array after adding the MACs of hosts 0..11, as built
#: before positions were memoized (commit a669cb4).
PINNED_FILTER_DIGESTS = {
    (64, 2): "b7b0f75be1fe58d4fcecee3777d67cca59918b6cfe9e3761a73f7a8a4e3f4f1a",
    (1024, 1): "eaba63b6a692e3e27fa134603329623601a725713e93d797df8582ba1617b8b4",
    (16384, 7): "2f0d7c7353789fa07247026eb64834e39bc09ce65ce72d75d9e1061103281256",
}


class TestBloomPositions:
    @pytest.mark.parametrize("hash_count", (1, 2, 7))
    @pytest.mark.parametrize("size_bits", (64, 1024, 16384))
    @given(
        items=st.lists(st.binary(min_size=0, max_size=8), max_size=10),
        probes=st.lists(st.binary(min_size=0, max_size=8), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_add_and_contains_are_the_formula(self, size_bits, hash_count, items, probes):
        from repro.datastructures.bloom import BloomFilter, probe_positions

        bloom = BloomFilter(size_bits, hash_count)
        bits = bytearray((size_bits + 7) // 8)
        for item in items:
            bloom.add(item)
            for position in km_positions(item, size_bits, hash_count):
                bits[position >> 3] |= 1 << (position & 7)
        assert bytes(bloom._bits) == bytes(bits)
        for probe in items + probes:
            positions = km_positions(probe, size_bits, hash_count)
            expected = all(bits[position >> 3] & (1 << (position & 7)) for position in positions)
            assert (probe in bloom) == expected
            assert probe_positions(probe, size_bits, hash_count) == tuple(positions)
            assert bloom.has_positions(positions) == expected

    @pytest.mark.parametrize("geometry", PINNED_FILTER_DIGESTS)
    def test_serialized_filters_are_unchanged(self, geometry):
        import hashlib

        from repro.datastructures.bloom import BloomFilter

        bloom = BloomFilter(*geometry)
        bloom.add_all(mac(i).to_bytes() for i in range(12))
        assert hashlib.sha256(bytes(bloom._bits)).hexdigest() == PINNED_FILTER_DIGESTS[geometry]


# -- the memoized wire tuple is the sorted table, after every mutation ----------------------

lfib_ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("learn"), st.integers(0, 9), st.integers(1, 3), st.integers(0, 2)),
        st.tuples(st.just("forget"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=14,
)


class TestLocalFibWireTuple:
    @given(ops=lfib_ops_strategy)
    @settings(max_examples=120, deadline=None)
    def test_refreshed_by_every_mutation_and_only_by_one(self, ops):
        from repro.datastructures.fib import LocalFib

        lfib = LocalFib()
        assert lfib.wire_entries() == ()
        for op in ops:
            before, version = lfib.wire_entries(), lfib.version
            if op[0] == "learn":
                changed = lfib.learn(mac(op[1]), op[2], op[3])
            else:
                changed = lfib.forget(mac(op[1]))
            assert (lfib.version != version) == changed
            wire = lfib.wire_entries()
            assert wire == tuple(
                (entry.mac, entry.port, entry.tenant_id) for entry in sorted(lfib, key=lambda entry: entry.mac)
            )
            if not changed:  # a no-op learn / forget: the very same tuple
                assert wire is before
            assert lfib.wire_entries() is wire


# -- the arrival step: a row of columns is the record form ----------------------------------

ARRIVAL_SYSTEMS = ("openflow", "lazyctrl-static", "lazyctrl-dynamic")
ARRIVAL_HOSTS = 48

#: (gap to the previous arrival, src host, dst host, packets, bytes, duration).
arrivals_of_flows_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 90.0),
        st.integers(0, ARRIVAL_HOSTS - 1),
        st.integers(0, ARRIVAL_HOSTS - 1),
        st.integers(1, 6),
        st.integers(64, 400_000),
        st.floats(0.01, 45.0),
    ).filter(lambda flow: flow[1] != flow[2]),
    min_size=1,
    max_size=40,
)


def arrival_network(links=None):
    from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

    network = build_multi_tenant_datacenter(
        TopologyProfile(
            switch_count=8,
            host_count=ARRIVAL_HOSTS,
            min_tenant_size=6,
            max_tenant_size=12,
            home_switches_per_tenant=2,
            seed=4,
        )
    )
    if links is not None:
        links.apply_network(network)
    return network


def arrival_plane(system, *, links=None, timeline=False, departed=False):
    """A provisioned plane on its own network, a listener on its bus."""
    from repro.core.presets import default_grouping_config
    from repro.core.registry import get_control_plane
    from repro.obs.timeline import MetricsTimeline
    from repro.obs.tracer import EventTracer
    from repro.traffic.registry import get_traffic_model

    network = arrival_network(links)
    config = default_grouping_config(8)
    if links is not None:
        config = queued(config)
    plane = get_control_plane(system).build(
        network, config=config, workload_bucket_seconds=600.0, latency_bucket_seconds=600.0
    )
    listener = RecordingListener()
    plane.set_tracer(
        EventTracer(
            system=system,
            timeline=MetricsTimeline(600.0) if timeline else None,
            listeners=[listener],
        )
    )
    warmup = get_traffic_model("realistic").build(
        network, params={"total_flows": 300, "seed": 3, "duration_hours": 1.0}, name="warm-up"
    )
    plane.prepare(warmup, warmup_end=1800.0)
    if departed:
        plane.churn_tenant_departure(network.host(0).tenant_id, now=0.0)
    return plane, listener


def plane_state(plane, listener, horizon):
    matrix = plane.intensity_matrix()
    timeline = plane.tracer.timeline
    return {
        "counters": plane.counters,
        "switches": [switch_state(switch) for switch in plane.switches()],
        "latency": plane.latency_recorder.bucket_totals(),
        "intensity": None if matrix is None else list(matrix.pairs()),  # key order included
        "links": plane.link_usage(horizon),
        "requests": plane.total_controller_requests(),
        "workload": plane.workload_series().series(bucket_range=(0, 8)),
        "updates": plane.updates_per_hour(hours=2),
        "events": listener.events,
        "timeline": None if timeline is None else timeline.result(8),
    }


def thin_links():
    """Uplinks thin enough to congest in the 10 s windows of :func:`ten_second_windows`."""
    from repro.bandwidth.spec import LinkCapacitySpec

    return LinkCapacitySpec(uplink_mbps=0.05)


@pytest.fixture(autouse=True, scope="module")
def ten_second_windows():
    """Short link accounting windows, so a few hours of flows straddle many."""
    with mock.patch.object(meter, "WINDOW_SECONDS", 10.0):
        yield


def queued(config):
    """``config`` with the queueing term the thin links feed switched on."""
    return dataclasses.replace(
        config, latency=dataclasses.replace(config.latency, queueing_service_ms=0.25)
    )


class TestArrivalStep:
    @pytest.mark.parametrize(
        "variant", ("plain", "metered", "departed", "timeline", "metered-departed-timeline")
    )
    @pytest.mark.parametrize("system", ARRIVAL_SYSTEMS)
    @given(flows=arrivals_of_flows_strategy)
    @settings(max_examples=15, deadline=None)
    def test_a_row_of_columns_is_handle_flow_arrival(self, system, variant, flows):
        """... ticks included, so the intensity window a regrouping reads —
        key order and all — is the one the record form leaves."""
        from repro.core.results import FlowHandlingResult
        from repro.traffic.flow import FlowRecord

        options = dict(
            links=thin_links() if "metered" in variant else None,
            timeline="timeline" in variant,
            departed="departed" in variant,
        )
        (by_row, row_events), (by_record, record_events) = (
            arrival_plane(system, **options),
            arrival_plane(system, **options),
        )
        now, next_tick = 0.0, 120.0
        for flow_id, (gap, *rest) in enumerate(flows):
            now += gap
            while next_tick <= now:
                by_row.periodic(next_tick), by_record.periodic(next_tick)
                next_tick += 120.0
            arrival = by_row.flow_arrival(now, *rest)
            result = by_record.handle_flow_arrival(FlowRecord(now, flow_id, *rest), now)
            if arrival is None:
                assert result is None
            else:
                assert result == FlowHandlingResult(flow_id, *arrival)
        horizon = now + 60.0
        assert plane_state(by_row, row_events, horizon) == plane_state(
            by_record, record_events, horizon
        )
        handled = by_row.counters.flows_handled + by_row.counters.departed_flows
        assert handled == len(flows)

    @pytest.mark.parametrize("system", ARRIVAL_SYSTEMS)
    def test_the_property_is_not_vacuous(self, system):
        """Departed, congested, controller-bound and intra-group arrivals all occur."""
        plane, listener = arrival_plane(system, links=thin_links(), timeline=True, departed=True)
        for index in range(200):
            src, dst = (7 * index) % ARRIVAL_HOSTS, (11 * index + 5) % ARRIVAL_HOSTS
            if src != dst:
                plane.flow_arrival(3.0 * index, src, dst, 3, 90_000, 2.0)
        counters = plane.counters
        assert counters.departed_flows > 0 and counters.congested_flows > 0
        assert counters.controller_requests > 0 and counters.local_flows > 0
        if system != "openflow":
            assert counters.intra_group_flows > 0 and list(plane.intensity_matrix().pairs())
        assert any(type(event).__name__ == "LinkCongestedEvent" for event in listener.events)

    @given(flows=arrivals_of_flows_strategy, lag=st.floats(0.0, 30.0))
    @settings(max_examples=25, deadline=None)
    def test_a_record_arriving_after_its_start(self, flows, lag):
        """The record form's extra: ``now`` apart from the flow's start (the
        meter charges from the start and reads at ``now``)."""
        from repro.core.results import FlowHandlingResult
        from repro.traffic.flow import FlowRecord

        (by_row, row_events), (by_record, record_events) = (
            arrival_plane("lazyctrl-dynamic", links=thin_links()),
            arrival_plane("lazyctrl-dynamic", links=thin_links()),
        )
        start = 0.0
        for flow_id, (gap, *rest) in enumerate(flows):
            start += gap
            arrival = by_row.flow_arrival(start, *rest, now=start + lag)
            result = by_record.handle_flow_arrival(FlowRecord(start, flow_id, *rest), start + lag)
            assert result == (None if arrival is None else FlowHandlingResult(flow_id, *arrival))
        horizon = start + lag + 60.0
        assert plane_state(by_row, row_events, horizon) == plane_state(
            by_record, record_events, horizon
        )


class TestColumnBornReplay:
    """Replay level: a trace gathered from a stream and the same flows handed
    over as a record list are one run, whatever rides on the replay."""

    FLOWS = 900

    def _traces(self, links=None):
        from repro.traffic.registry import get_traffic_model
        from repro.traffic.trace import Trace

        column_born = Trace.from_stream(get_traffic_model("uniform").build(
            arrival_network(links),
            params={"total_flows": self.FLOWS, "seed": 12, "duration_hours": 4.0},
            name="replayed",
        ))
        record_born = Trace("replayed", arrival_network(links), list(column_born.flows))
        assert column_born.columns().mints_records and not record_born.columns().mints_records
        return column_born, record_born

    @pytest.mark.parametrize(
        "variant", ("churn", "failures", "tables", "links", "events", "churn-tables-links-events")
    )
    @pytest.mark.parametrize("system", ("openflow", "lazyctrl-dynamic"))
    def test_identical_run_result(self, system, variant):
        from repro.churn.spec import ChurnSpec
        from repro.core.presets import default_grouping_config
        from repro.core.runner import ScenarioRunner
        from repro.core.scenario import FailureInjectionSpec, ScheduleSpec
        from repro.obs.timeline import MetricsTimeline
        from repro.obs.tracer import EventTracer

        links = thin_links() if "links" in variant else None
        config = default_grouping_config(8)
        if links is not None:
            config = queued(config)
        if "tables" in variant:
            config = dataclasses.replace(
                config, flow_table=FlowTableConfig(policy="lru").resized(2)
            )
        schedule = ScheduleSpec(duration_hours=4.0, bucket_hours=1.0)
        churn = None
        if "churn" in variant:
            churn = ChurnSpec(seed=3, migration_rate_per_hour=40.0, drift_rate_per_hour=6.0)

        outcomes = []
        for trace in self._traces(links):
            listener = RecordingListener()
            tracer = EventTracer(
                system=system,
                timeline=MetricsTimeline(schedule.bucket_seconds),
                listeners=[listener] if "events" in variant else [],
            )
            run = ScenarioRunner().replay_system(
                system,
                trace,
                schedule=schedule,
                config=config,
                churn=churn,
                failures=FailureInjectionSpec(at_hours=(1.0, 2.5)) if variant == "failures" else None,
                tracer=tracer,
            )
            outcomes.append((run.to_dict(), listener.events))
        (by_columns, column_events), (by_records, record_events) = outcomes
        assert by_columns == by_records
        assert column_events == record_events
        counters = by_columns["counters"]
        assert counters["flows_handled"] + counters["departed_flows"] == self.FLOWS
        if churn is not None and system == "lazyctrl-dynamic":
            assert by_columns["churn"]["migrations"] > 0 and by_columns["churn"]["drift_events"] > 0
        if variant == "failures" and system == "lazyctrl-dynamic":
            assert by_columns["failover_events"] == 2
        if "tables" in variant:
            assert by_columns["tables"]["evictions"] > 0
        if links is not None:
            assert counters["congested_flows"] > 0
        if "events" in variant:
            assert column_events

    @pytest.mark.parametrize("system", ("openflow", "lazyctrl-dynamic"))
    def test_the_kernels_whole_batch_bypass_walks_columns_too(self, system):
        """A failed switch sends every batch around the kernel, row by row
        whether the chunk holds columns alone or records beside them."""
        pytest.importorskip("numpy")
        from repro.core.presets import default_grouping_config
        from repro.core.registry import get_control_plane
        from repro.kernel import build_batch_handler
        from repro.perf.recorder import PerfRecorder
        from repro.traffic.replay import TraceReplayer

        states = []
        for trace in self._traces():
            plane = get_control_plane(system).build(
                trace.network,
                config=default_grouping_config(8),
                workload_bucket_seconds=3600.0,
                latency_bucket_seconds=3600.0,
            )
            plane.prepare(trace, warmup_end=1800.0)
            plane.switch(3).failed = True
            perf = PerfRecorder()
            TraceReplayer(
                trace,
                plane,
                periodic_interval=120.0,
                periodic_callbacks=[plane.periodic],
                batch_handler=build_batch_handler(plane, perf=perf),
            ).replay(start=0.0, end=4 * 3600.0)
            assert perf.counter("kernel.batches_bypassed") == perf.counter("kernel.batches") > 0
            assert perf.counter("kernel.fallback_bypass") == self.FLOWS
            states.append(plane_state(plane, RecordingListener(), 4 * 3600.0))
        assert states[0] == states[1]
