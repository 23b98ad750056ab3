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

The run-of-n checks go through the equivalence harness's second entry point,
:func:`equivalence.assert_n_ones`; tables, switches, G-FIBs and planes are
read with its end-state readers.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from equivalence import (
    SMALL_TENANTS,
    THIN_LINKS,
    assert_n_ones,
    build_spec,
    gfib_state,
    plane_state,
    queued,
    switch_state,
    table_state,
)
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


def installed(policy):
    table = FlowTable(TABLE_CONFIGS[policy])
    table.install(key(1, 2), FlowAction(ActionType.ENCAP_TO_SWITCH, 7), now=10.0)
    table.install(key(3, 4), FlowAction(ActionType.FORWARD_LOCAL, 1), now=10.0)
    return table


class TestFlowTableRun:
    @pytest.mark.parametrize("policy", TABLE_CONFIGS)
    @given(arrivals=arrivals_strategy, size_bytes=st.integers(0, 9000))
    @settings(max_examples=60, deadline=None)
    def test_refresh_times_n_is_n_lookups_or_undecidable(self, policy, arrivals, size_bytes):
        times, max_gap = arrival_times(arrivals)
        alive, _, hits = assert_n_ones(
            installed(policy), installed(policy), table_state,
            ask=lambda table: table.stays_alive(table.peek(key(1, 2)), times[0], max_gap, times[-1]) or None,
            whole=lambda table, _: table.account_run(table.peek(key(1, 2)), len(times), times[-1], size_bytes),
            ones=lambda table: [table.lookup(key(1, 2), now=now, size_bytes=size_bytes) for now in times],
        )
        if policy == "adaptive":
            assert not alive  # a stateful policy is never decidable in bulk
        if alive:  # decided: never a wrong hit
            assert all(hit is not None for hit in hits)

    @given(arrivals=arrivals_strategy)
    @settings(max_examples=40, deadline=None)
    def test_a_run_that_crosses_a_bound_is_undecidable(self, arrivals):
        """Soundness from the other side: whenever a single lookup of the run
        would expire the rule, the run form must have declined."""
        times, max_gap = arrival_times(arrivals)
        run, single = installed("idle-hard-hybrid"), installed("idle-hard-hybrid")
        expired = any(single.lookup(key(1, 2), now=now) is None for now in times)
        alive = run.stays_alive(run.peek(key(1, 2)), times[0], max_gap, times[-1])
        assert alive == (not expired)

    @given(n=st.integers(1, 9))
    def test_a_run_of_misses_is_n_missing_lookups(self, n):
        assert FlowTable().peek(key(5, 6)) is None
        _, _, misses = assert_n_ones(
            FlowTable(), FlowTable(), table_state,
            whole=lambda table, _: table.account_run(None, n, 99.0, 1500),
            ones=lambda table: [table.lookup(key(5, 6), now=99.0, size_bytes=1500) for _ in range(n)],
        )
        assert misses == [None] * n


class SmallMemoGroupFib(GroupFib):
    """A G-FIB whose memo fills up within a handful of distinct MACs."""

    QUERY_CACHE_LIMIT = 6


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
            peers, _, answers = assert_n_ones(
                run, single, gfib_state,
                ask=lambda gfib: gfib.peek(mac(host)),
                whole=lambda gfib, peers: gfib.account_queries(mac(host), peers, n),
                ones=lambda gfib: [gfib.query(mac(host)) for _ in range(n)],
            )
            assert answers == [peers] * n


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
            verdict, _, verdicts = assert_n_ones(
                run, single, switch_state,
                ask=lambda switch: switch.classify_run(key(1, dst), head[0], max_gap, head[-1]),
                whole=lambda switch, verdict: switch.apply_run(verdict, len(head), head[-1], size_bytes),
                ones=lambda switch: [switch.forward_key(key(1, dst), now, size_bytes) for now in head],
            )
            if verdict is None:
                assert key(1, dst) in run.flow_table  # only a resident rule is undecidable
                return
            for one in verdicts:
                assert (one.outcome, one.key, one.local_port, one.target_switches, one.rule is None) == (
                    verdict.outcome, verdict.key, verdict.local_port, verdict.target_switches, verdict.rule is None
                )
        if fails_from is not None:
            run.failed = single.failed = True
            for now in times[len(head):]:
                for switch in (run, single):
                    dropped = switch.forward_key(key(1, dst), now, size_bytes)
                    assert dropped.outcome is ForwardingOutcome.DROPPED_NO_RULE
                    assert dropped.rule is None
        assert switch_state(run) == switch_state(single)


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
    def test_every_outcome_is_reached(self, kind):
        """Neither property is vacuous: the run and the key step each reach every
        verdict, except that a drop or send-to-controller rule leaves a run undecided."""
        hit, punt = ForwardingOutcome.FLOW_TABLE_HIT, ForwardingOutcome.SENT_TO_CONTROLLER
        intra = ForwardingOutcome.INTRA_GROUP_FORWARD if kind == "lazyctrl" else punt
        by_key = {20: hit, 2: hit, 21: ForwardingOutcome.DROPPED_NO_RULE, 22: punt,
                  3: ForwardingOutcome.LOCAL_DELIVERY, 10: intra, 11: intra, 30: punt}
        switch = make_switch(kind, "lru")
        runs = {dst: getattr(switch.classify_run(key(1, dst), 11.0, 0.0, 11.0), "outcome", None) for dst in by_key}
        assert runs == {**by_key, 21: None, 22: None}
        assert {dst: switch.forward_key(key(1, dst), 11.0).outcome for dst in by_key} == by_key
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
        records, columns = metered_columns(flows)
        horizon = records[-1].start_time + 50.0
        _, (utilizations, crossings), observations = assert_n_ones(
            *(LinkUtilizationMeter(capacities, window_seconds=window_seconds) for _ in range(2)),
            lambda meter: meter_state(meter, horizon),
            whole=lambda meter, _: meter.account_run(*columns),
            ones=lambda meter: [
                meter.observe(record, src, dst, record.start_time)
                for record, src, dst in zip(records, columns[3], columns[4])
            ],
        )
        assert utilizations == [(seen.src_utilization, seen.dst_utilization) for seen in observations]
        assert crossings == [
            (record.start_time, switch_id, utilization)
            for record, seen in zip(records, observations)
            for switch_id, utilization in seen.newly_congested
        ]

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
    from repro.common.config import LazyCtrlConfig
    from repro.core.system import OpenFlowSystem
    from repro.obs.tracer import EventTracer
    from repro.topology.builder import TopologyProfile, build_multi_tenant_datacenter

    network = build_multi_tenant_datacenter(TopologyProfile(switch_count=4, host_count=16, seed=3))
    THIN_LINKS.apply_network(network)
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
        horizon = records[-1].start_time + 50.0
        events = {id(run): run_events.events, id(single): single_events.events}

        def state(plane):
            return dataclasses.asdict(plane.counters), events[id(plane)], meter_state(plane.link_meter, horizon)

        _, penalties, singles = assert_n_ones(
            run, single, state,
            whole=lambda plane, _: plane.link_penalties_ms(*columns),
            ones=lambda plane: [plane.congestion_penalty_ms(*row) for row in zip(*columns)],
        )
        assert penalties == singles

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
                assert gfib_state(holder) == gfib_state(twin)
        assert source.summaries_built == len(disseminations)
        assert all(twin.summaries_built == twin.peer_installs == len(disseminations) for twin in twins)
        assert all(gfib.summaries_built == 0 for gfib in shared)

    def test_a_summary_of_another_geometry_is_rejected(self):
        from repro.common.errors import ConfigurationError
        from repro.datastructures.bloom import BloomFilter

        gfib = GroupFib(track_exact=True)
        gfib.install_peer(5, [mac(1)])
        before = gfib_state(gfib)
        small = BloomFilter(64, 2)
        small.add(mac(2).to_bytes())
        with pytest.raises(ConfigurationError, match="64-bit/2-hash"):
            gfib.install_summary(6, small, [mac(2)])
        assert gfib_state(gfib) == before


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


def arrival_plane(system, *, links=None, timeline=False, departed=False):
    """A provisioned plane on its own network, a listener on its bus."""
    from repro.core.presets import default_grouping_config
    from repro.core.registry import get_control_plane
    from repro.obs.timeline import MetricsTimeline
    from repro.obs.tracer import EventTracer
    from repro.traffic.registry import get_traffic_model

    spec = build_spec(topology=SMALL_TENANTS, links=links, config=default_grouping_config(8))
    network = spec.build_network()
    plane = get_control_plane(system).build(
        network, config=spec.config, workload_bucket_seconds=600.0, latency_bucket_seconds=600.0
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


@pytest.fixture(autouse=True, scope="module")
def ten_second_windows():
    """Short link accounting windows, so a few hours of flows straddle many."""
    with mock.patch.object(meter, "WINDOW_SECONDS", 10.0):
        yield


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
            links=THIN_LINKS if "metered" in variant else None,
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
        assert plane_state(by_row, now + 60.0) == plane_state(by_record, now + 60.0)
        assert row_events.events == record_events.events
        handled = by_row.counters.flows_handled + by_row.counters.departed_flows
        assert handled == len(flows)

    @pytest.mark.parametrize("system", ARRIVAL_SYSTEMS)
    def test_the_property_is_not_vacuous(self, system):
        """Departed, congested, controller-bound and intra-group arrivals all occur."""
        plane, listener = arrival_plane(system, links=THIN_LINKS, timeline=True, departed=True)
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
            arrival_plane("lazyctrl-dynamic", links=THIN_LINKS),
            arrival_plane("lazyctrl-dynamic", links=THIN_LINKS),
        )
        start = 0.0
        for flow_id, (gap, *rest) in enumerate(flows):
            start += gap
            arrival = by_row.flow_arrival(start, *rest, now=start + lag)
            result = by_record.handle_flow_arrival(FlowRecord(start, flow_id, *rest), start + lag)
            assert result == (None if arrival is None else FlowHandlingResult(flow_id, *arrival))
        assert plane_state(by_row, start + lag + 60.0) == plane_state(by_record, start + lag + 60.0)
        assert row_events.events == record_events.events


class TestColumnBornReplay:
    """A trace gathered from a stream and the same flows handed over as a
    record list replay alike (the equivalence matrix's ``records`` cells);
    here, also around the kernel."""

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
        from repro.traffic.trace import Trace

        spec = build_spec(model="uniform", flows=900, seed=12, trace_hours=4.0, topology=SMALL_TENANTS)
        column_born = spec.build_trace(spec.build_network())
        record_born = Trace(spec.name, spec.build_network(), list(column_born.flows))
        assert column_born.columns().mints_records and not record_born.columns().mints_records
        states = []
        for trace in (column_born, record_born):
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
            assert perf.counter("kernel.fallback_bypass") == 900
            states.append(plane_state(plane, 4 * 3600.0))
        assert states[0] == states[1]
