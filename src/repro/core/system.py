"""The two systems under test: LazyCtrl and the baseline OpenFlow control.

The paper compares them on the same edge switches and the same replayed
trace, and the baseline is the degenerate case of the hybrid plane: no
groups, so every table miss is a ``Packet_In``.  :class:`EdgePlane` is that
common system.  It implements the :class:`~repro.traffic.replay.FlowSink`
protocol the trace replayer drives — :meth:`EdgePlane.flow_arrival`, written
on a flow's six columns, with ``handle_flow_arrival`` its record form — and
handles one flow in three steps: **resolve** its endpoints on the (possibly
churning) topology; **decide** which mechanism handles the first packet —
flow table, L-FIB, G-FIB or the controller — what that path costs under the
latency model and the traversed uplinks' congestion, and what it adds to the
counters; **record** latency samples for every packet, the flow in the
intensity window, and the timeline.  :class:`LazyCtrlSystem` and
:class:`OpenFlowSystem` supply the switch and controller they are built
from, what a miss at the ingress switch leads to, their own perf counters
and their churn hooks.  *decide* is resolve →
:meth:`EdgePlane.first_packet` (the packet-in cycle on the flow key: switch,
then :meth:`EdgePlane.settle_run` or the controller) → congestion.  What it
does for a flow its ingress switch handled alone — price it, deliver
intra-group copies, count it — is ``settle_run``, written for ``n`` such flows
at once; the vectorized kernel (:mod:`repro.kernel`) calls it per (src, dst)
pair, takes ``first_packet`` for the flows it cannot account in bulk, charges
a batch's uplinks through :meth:`EdgePlane.link_penalties_ms` (the congestion
step, written for a run of flows; ``flow_arrival`` takes it for one), and
records per batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.common.addresses import MacAddress
from repro.common.config import LazyCtrlConfig
from repro.common.packets import FlowKey
from repro.controlplane.base import EdgeController
from repro.controlplane.lazyctrl_controller import LazyCtrlController
from repro.controlplane.openflow_controller import OpenFlowController
from repro.dataplane.decisions import INTRA_GROUP, LOCAL, TABLE_HIT, ForwardingOutcome
from repro.dataplane.edge_switch import EdgeSwitch, LazyCtrlEdgeSwitch
from repro.core.results import (
    FlowHandlingResult,
    FlowPathKind,
    SystemCounters,
    TableUsageResult,
)
from repro.obs.tracer import NULL_TRACER
from repro.partitioning.sgi import Grouping
from repro.perf.recorder import NULL_RECORDER
from repro.datastructures.intensity import IntensityMatrix
from repro.simulation.latency import LatencyModel
from repro.simulation.metrics import LatencyRecorder
from repro.topology.network import DataCenterNetwork, EdgeSwitchInfo
from repro.traffic.chunk import draw_of
from repro.traffic.flow import FlowRecord

if TYPE_CHECKING:
    from repro.controlplane.state_dissemination import StateDisseminator

# How often, at most, the periodic tick sweeps expired rules out of every
# flow table (see ``EdgePlane._sweep_tables``).
TABLE_SWEEP_INTERVAL_SECONDS = 300.0


def _attach_table_tracer(tracer, switch) -> None:
    """Tap one switch's flow table into the event bus with its switch id.

    The table itself knows only pressure *kinds*; the closure re-attaches
    the switch identity and maps each kind onto its typed event.
    """
    from repro.obs.events import EvictionEvent, OverflowEvent, ReinstallEvent

    switch_id = switch.switch_id

    def on_pressure(kind: str, now: float) -> None:
        if kind == "overflow":
            tracer.emit(OverflowEvent(time=now, switch_id=switch_id))
        elif kind == "reinstall":
            tracer.emit(ReinstallEvent(time=now, switch_id=switch_id))
        else:
            # Removal reasons: evicted / idle_timeout / hard_timeout.
            tracer.emit(EvictionEvent(time=now, switch_id=switch_id, reason=kind))

    switch.flow_table.pressure_listener = on_pressure


#: A plane's miss handling returns (path, first-packet ms, steady ms).
MissResolution = Tuple[FlowPathKind, float, float]

#: :meth:`EdgePlane.settle_run` returns (path, first-packet ms, steady ms,
#: an intra-group copy dropped at a false positive).
SettledRun = Tuple[FlowPathKind, float, float, bool]

#: :meth:`EdgePlane.first_packet` adds (the controller was involved, duplicate copies sent).
FirstPacket = Tuple[FlowPathKind, float, float, bool, bool, int]

#: :meth:`EdgePlane.flow_arrival` returns a :class:`FlowHandlingResult`'s
#: fields after the flow id, in its order.
Arrival = Tuple[FlowPathKind, int, int, bool, float, float, int, bool]


class EdgePlane:
    """Edge switches under one controller: the system both designs are.

    Subclasses provide :meth:`_make_switch` and :meth:`_resolve_miss`.
    """

    def __init__(
        self,
        network: DataCenterNetwork,
        controller: EdgeController,
        *,
        config: LazyCtrlConfig,
        latency_bucket_seconds: float = 7200.0,
    ) -> None:
        self.network = network
        self.config = config
        self.controller = controller
        self.latency_model = LatencyModel(config.latency)
        self.latency_recorder = LatencyRecorder(latency_bucket_seconds)
        self.counters = SystemCounters()
        self.perf = NULL_RECORDER
        self.tracer = NULL_TRACER
        #: Uplink utilization meter, or ``None`` on a topology without
        #: capacities (which never imports the bandwidth subsystem).
        self.link_meter = None
        if network.has_link_capacities():
            from repro.bandwidth.meter import build_link_meter

            self.link_meter = build_link_meter(network)
        self._last_table_sweep = 0.0
        self._switches: Dict[int, EdgeSwitch] = {}
        for info in network.switches():
            switch = self._make_switch(info)
            self._switches[info.switch_id] = switch
            controller.register_switch(switch)

    def _make_switch(self, info: EdgeSwitchInfo) -> EdgeSwitch:
        raise NotImplementedError

    def switch(self, switch_id: int) -> EdgeSwitch:
        """Return one of the plane's edge switches."""
        return self._switches[switch_id]

    def switches(self) -> List[EdgeSwitch]:
        """All edge switches ordered by id."""
        return list(self._switches.values())

    # -- FlowSink protocol: resolve -> decide -> record -----------------------------

    def flow_arrival(
        self,
        start_time: float,
        src_host_id: int,
        dst_host_id: int,
        packet_count: int,
        byte_count: int,
        duration: float,
        *,
        now: Optional[float] = None,
    ) -> Optional[Arrival]:
        """Handle one flow arriving at ``now``, given as its six columns.

        The arrival step itself — a replayer calls it with one row of a flow
        chunk's columns (``now`` is then the flow's start) and builds no
        :class:`~repro.traffic.flow.FlowRecord`; :meth:`handle_flow_arrival`
        is its record form.  Everything a flow changes in switches,
        controller, meter and :attr:`counters` happens first: resolve the
        endpoints, take :meth:`first_packet` on their flow key, add the
        uplinks' congestion.  Then the flow goes into the intensity window,
        every packet's latency into the recorder, and the first packet's
        onto the timeline.  Returns ``None`` (a departed flow,
        counted, nothing else) when an endpoint's tenant left mid-run: the
        flow never materializes and generates no control-plane work.
        """
        if now is None:
            now = start_time
        network = self.network
        src_host = network.host_if_present(src_host_id)
        dst_host = network.host_if_present(dst_host_id)
        if src_host is None or dst_host is None:
            self.counters.departed_flows += 1
            return None
        src_switch_id = src_host.switch_id
        dst_switch_id = dst_host.switch_id
        key = FlowKey(src_host.mac, dst_host.mac, src_host.tenant_id)
        path, first, steady, false_positive_drop, controller_involved, duplicates = (
            self.first_packet(key, src_switch_id, dst_switch_id, now)
        )
        penalty = self.congestion_penalty_ms(
            start_time, duration, byte_count, src_switch_id, dst_switch_id, now=now
        )
        if penalty > 0.0:
            first += penalty
            steady += penalty
        matrix = self.intensity_matrix()
        if matrix is not None:
            matrix.record(src_switch_id, dst_switch_id)
        self.latency_recorder.record(now, first)
        if packet_count > 1:
            self.latency_recorder.record(now, steady, count=packet_count - 1)
        if self.tracer.enabled:
            self.tracer.flow(now, first)
        return path, src_switch_id, dst_switch_id, controller_involved, first, steady, duplicates, false_positive_drop

    def handle_flow_arrival(self, flow: FlowRecord, now: float) -> Optional[FlowHandlingResult]:
        """:meth:`flow_arrival` for a record, answering with a result object."""
        arrival = self.flow_arrival(*draw_of(flow), now=now)
        return None if arrival is None else FlowHandlingResult(flow.flow_id, *arrival)

    def first_packet(
        self, key: FlowKey, src_switch_id: int, dst_switch_id: int, now: float
    ) -> FirstPacket:
        """One flow's first packet on its flow key alone: the packet-in cycle.

        The ingress switch's
        :meth:`~repro.dataplane.edge_switch.EdgeSwitch.forward_key`, then
        :meth:`settle_run` for what the switch decided alone or
        :meth:`_resolve_miss` for what it could not; uplink congestion is the
        caller's to add.  :meth:`flow_arrival` takes this step for one flow;
        the vectorized kernel's ordered walk takes it with a (src, dst) pair's
        memoized key and switch ids and the time column.
        """
        verdict = self._switches[src_switch_id].forward_key(key, now)
        targets = verdict.target_switches
        settled = self.settle_run(verdict.outcome, targets, key.dst_mac, 1)
        if settled is None:
            path, first, steady = self._resolve_miss(key, src_switch_id, dst_switch_id, now)
            self.counters.controller_requests += 1
            self.counters.flows_handled += 1
            return path, first, steady, False, True, 0
        return *settled, False, max(0, len(targets) - 1)

    def settle_run(
        self, outcome: ForwardingOutcome, target_switches: Tuple[int, ...], dst_mac: MacAddress, n: int
    ) -> Optional[SettledRun]:
        """Price and count ``n`` flows whose first packet the ingress switch decided alone.

        ``outcome`` and ``target_switches`` are what the ingress switch
        answered for each of them, as a ``RunVerdict`` carries them.  For a
        table hit, a local delivery or an intra-group forward this prices the
        path with the latency model, delivers the intra-group copies to the
        candidate switches (those that do not host ``dst_mac`` drop them,
        Fig. 5 line 28) and bumps :attr:`counters`; uplink congestion is the
        caller's to add.  Returns
        ``None``, having changed nothing, for every other outcome: those
        flows need the controller, one at a time (:meth:`_resolve_miss`).
        """
        counters = self.counters
        model = self.latency_model
        false_positive_drop = False
        if outcome is LOCAL:
            path = FlowPathKind.LOCAL
            first = steady = model.local_delivery_ms()
            counters.local_flows += n
        elif outcome is TABLE_HIT:
            path = FlowPathKind.FLOW_TABLE
            first = steady = model.flow_table_hit_ms()
        elif outcome is INTRA_GROUP:
            path = FlowPathKind.INTRA_GROUP
            first = model.intra_group_ms(len(target_switches))
            steady = model.intra_group_ms()
            counters.intra_group_flows += n
            counters.duplicate_deliveries += (len(target_switches) - 1) * n
            for target_id in target_switches:
                if self._switches[target_id].receive_run(dst_mac, n):
                    false_positive_drop = True
            if false_positive_drop:
                counters.false_positive_drops += n
        else:
            return None
        counters.flows_handled += n
        return path, first, steady, false_positive_drop

    def _resolve_miss(
        self, key: FlowKey, src_switch_id: int, dst_switch_id: int, now: float
    ) -> MissResolution:
        """Set up, through the controller, a flow the ingress switch could not place."""
        raise NotImplementedError

    def congestion_penalty_ms(
        self,
        start_time: float,
        duration: float,
        byte_count: int,
        src_switch_id: int,
        dst_switch_id: int,
        *,
        now: Optional[float] = None,
    ) -> float:
        """Queueing delay the traversed uplinks add to one flow's packets.

        :meth:`link_penalties_ms` for a run of one.  Returns 0.0 — and touches
        nothing — when the topology carries no capacities (``link_meter is
        None``) or the flow never leaves its edge switch, which is what keeps
        capacity-less runs bit-identical to pre-subsystem behaviour.
        """
        if self.link_meter is None or src_switch_id == dst_switch_id:
            return 0.0
        return self.link_penalties_ms(
            (start_time,),
            (duration,),
            (byte_count,),
            (src_switch_id,),
            (dst_switch_id,),
            nows=None if now is None else (now,),
        )[0]

    def link_penalties_ms(
        self,
        starts: Sequence[float],
        durations: Sequence[float],
        byte_counts: Sequence[int],
        src_switch_ids: Sequence[int],
        dst_switch_ids: Sequence[int],
        *,
        nows: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """Queueing delay per flow for a run of inter-switch flows under a link meter.

        One :meth:`~repro.bandwidth.meter.LinkUtilizationMeter.account_run`
        over the run, in arrival order: each flow's bytes are charged to both
        capacitated uplinks of the one-hop underlay (source and destination
        edge), their current accounting-window utilization is read back and
        priced through the latency model's M/M/1 term; flows that saw an
        uplink at or over capacity are counted and each uplink's first such
        reading in a window is published.  The meter reads nothing of
        forwarding state, so a caller may account a batch's flows apart from
        (but in the same order as) their forwarding.
        """
        utilizations, crossings = self.link_meter.account_run(
            starts, durations, byte_counts, src_switch_ids, dst_switch_ids, nows=nows
        )
        tracer = self.tracer
        if tracer.enabled:
            from repro.obs.events import LinkCongestedEvent

            for time, switch_id, utilization in crossings:
                tracer.emit(
                    LinkCongestedEvent(time=time, switch_id=switch_id, utilization=utilization)
                )
        queueing_delay_ms = self.latency_model.queueing_delay_ms
        congested = 0
        penalties = []
        for src_utilization, dst_utilization in utilizations:
            if src_utilization >= 1.0 or dst_utilization >= 1.0:
                congested += 1
            penalties.append(queueing_delay_ms(src_utilization) + queueing_delay_ms(dst_utilization))
        self.counters.congested_flows += congested
        return penalties

    def intensity_matrix(self) -> Optional[IntensityMatrix]:
        """The intensity window handled flows are recorded in, if the plane regroups.

        Read it per use: a regrouping starts a new window.
        """
        return None

    # -- periodic housekeeping ---------------------------------------------------------

    def periodic(self, now: float) -> None:
        """Periodic housekeeping: the plane's control work, then table aging."""
        self._control_tick(now)
        with self.perf.timeit("table_sweep"):
            self._sweep_tables(now)
        # Gauges sample at every tick, independent of the sweep rate limit
        # and after it: every plane's timeline shows post-expiry occupancy.
        if self.tracer.enabled:
            self.tracer.gauge(
                "table_occupancy",
                now,
                sum(len(switch.flow_table) for switch in self._switches.values()),
            )
            if self.link_meter is not None:
                self.tracer.gauge("link_utilization", now, self.link_meter.max_utilization(now))

    def _control_tick(self, now: float) -> None:
        """Controller-side periodic work; the reactive baseline has none."""

    def _sweep_tables(self, now: float) -> None:
        """Eagerly expire aged flow rules, at most once per sweep interval.

        The periodic tick fires every couple of replay minutes; the sweep is
        rate-limited by :data:`TABLE_SWEEP_INTERVAL_SECONDS` so large
        deployments do not walk every table on every tick.  Lookups expire
        rules lazily in between, so the sweep only changes *when* a removal
        is noticed, never whether it happens.
        """
        if now - self._last_table_sweep < TABLE_SWEEP_INTERVAL_SECONDS:
            return
        self._last_table_sweep = now
        for switch in self._switches.values():
            switch.advance_tables(now)

    # -- ControlPlane protocol (runner-facing) ------------------------------------------

    def prepare(self, trace, *, warmup_end: float, now: float = 0.0) -> None:
        """Provision the plane from the warm-up window; reactive control needs none."""

    def set_perf_recorder(self, recorder) -> None:
        """Attach a perf recorder to the system and its controller."""
        self.perf = recorder
        self.controller.perf = recorder

    def set_tracer(self, tracer) -> None:
        """Attach an event tracer to the system, its controller, and its tables."""
        self.tracer = tracer
        self.controller.tracer = tracer
        for switch in self._switches.values():
            _attach_table_tracer(tracer, switch)

    def fold_perf_counters(self) -> None:
        """Fold data-plane counters into the recorder (end-of-replay snapshot).

        The per-packet counters live on the switches themselves so the hot
        path never pays for instrumentation; this aggregates them into the
        recorder's registry once, when a snapshot is about to be taken.
        """
        perf = self.perf
        if not perf.enabled:
            return
        packets = to_controller = table_hits = table_misses = 0
        for switch in self._switches.values():
            packets += switch.packets_processed
            to_controller += switch.packets_to_controller
            table_hits += switch.flow_table.stats.hits
            table_misses += switch.flow_table.stats.misses
        perf.count("edge.packets_processed", packets)
        perf.count("edge.packets_to_controller", to_controller)
        perf.count("edge.flow_table_hits", table_hits)
        perf.count("edge.flow_table_misses", table_misses)
        perf.count("controller.flow_mods", self.controller.flow_mods_sent)
        self._fold_plane_counters(perf)
        usage = self.table_usage()
        perf.count("edge.table_overflows", usage.overflows)
        perf.count("edge.table_evictions", usage.evictions)
        perf.count("edge.table_idle_timeouts", usage.idle_timeouts)
        perf.count("edge.table_hard_timeouts", usage.hard_timeouts)
        perf.count("edge.table_reinstalls", usage.reinstalls)
        perf.gauge("edge.table_peak_occupancy", usage.peak_occupancy)
        perf.gauge("edge.table_final_occupancy", usage.final_occupancy)

    def _fold_plane_counters(self, perf) -> None:
        """Fold the counters only this design has."""

    def table_usage(self) -> TableUsageResult:
        """Flow-table pressure accounting aggregated over all edge switches."""
        installs = overflows = evictions = idle = hard = reinstalls = 0
        peak = final = 0
        for switch in self._switches.values():
            stats = switch.flow_table.stats
            installs += stats.installs
            overflows += stats.overflows
            evictions += stats.evictions
            idle += stats.timeouts
            hard += stats.hard_timeouts
            reinstalls += stats.reinstalls
            peak = max(peak, stats.peak_occupancy)
            final += len(switch.flow_table)
        return TableUsageResult(
            capacity=self.config.flow_table.capacity,
            policy=self.config.flow_table.policy,
            installs=installs,
            overflows=overflows,
            evictions=evictions,
            idle_timeouts=idle,
            hard_timeouts=hard,
            reinstalls=reinstalls,
            flow_removed_messages=self.controller.flow_removed_received,
            peak_occupancy=peak,
            final_occupancy=final,
        )

    def link_usage(self, duration_seconds: float):
        """Per-uplink utilization matrix, or ``None`` without capacities."""
        if self.link_meter is None:
            return None
        return self.link_meter.usage(duration_seconds)

    def workload_series(self):
        """Controller requests bucketed over simulation time."""
        return self.controller.workload_series

    def total_controller_requests(self) -> int:
        """Total requests the controller served."""
        return self.controller.total_requests

    def updates_per_hour(self, *, hours: int) -> List[float]:
        """Grouping updates per hour bucket; zero for a plane that never regroups."""
        return [0.0] * max(0, hours)

    def churn_attributed_regroupings(self) -> int:
        """Grouping updates applied while topology churn was pending."""
        return 0


class LazyCtrlSystem(EdgePlane):
    """The full LazyCtrl deployment: edge switches, LCGs and the lazy controller."""

    controller: LazyCtrlController

    def __init__(
        self,
        network: DataCenterNetwork,
        *,
        config: LazyCtrlConfig | None = None,
        dynamic_grouping: bool = True,
        workload_bucket_seconds: float = 7200.0,
        latency_bucket_seconds: float = 7200.0,
    ) -> None:
        config = config or LazyCtrlConfig()
        super().__init__(
            network,
            LazyCtrlController(
                network,
                config=config,
                dynamic_grouping=dynamic_grouping,
                workload_bucket_seconds=workload_bucket_seconds,
            ),
            config=config,
            latency_bucket_seconds=latency_bucket_seconds,
        )
        self.failover_records: List = []
        self.controller.bootstrap_host_locations()
        self._disseminator: Optional[StateDisseminator] = None

    @property
    def disseminator(self) -> StateDisseminator:
        """The live state dissemination (§III-D.3) the churn hooks drive.

        Built on first use: it holds only the network, the controller and
        zeroed counters, so a run without churn never imports it.
        """
        if self._disseminator is None:
            from repro.controlplane.state_dissemination import StateDisseminator

            self._disseminator = StateDisseminator(self.network, self.controller)
        return self._disseminator

    def _make_switch(self, info: EdgeSwitchInfo) -> LazyCtrlEdgeSwitch:
        return LazyCtrlEdgeSwitch(
            info.switch_id,
            management_mac=info.management_mac,
            bloom_config=self.config.bloom,
            flow_table_config=self.config.flow_table,
        )

    # -- grouping lifecycle -------------------------------------------------------

    def install_initial_grouping(self, warmup_trace, *, warmup_end: float, now: float = 0.0) -> Grouping:
        """Run IniGroup on the warm-up window of a trace and provision the groups."""
        matrix = warmup_trace.switch_intensity(start=0.0, end=warmup_end)
        grouping = self.controller.grouping_manager.initial_grouping(matrix, now=now)
        self.controller.apply_grouping(grouping)
        return grouping

    def prepare(self, trace, *, warmup_end: float, now: float = 0.0) -> None:
        """Provision the initial grouping from the trace's warm-up window."""
        self.install_initial_grouping(trace, warmup_end=warmup_end, now=now)

    # -- path selection --------------------------------------------------------------

    def _resolve_miss(
        self, key: FlowKey, src_switch_id: int, dst_switch_id: int, now: float
    ) -> MissResolution:
        """The group could not resolve the destination: an inter-group flow."""
        load = self.controller.current_load_rps(now)
        result = self.controller.handle_packet_in(src_switch_id, key, now)
        self.counters.inter_group_flows += 1
        return (
            FlowPathKind.INTER_GROUP if result.egress_switch_id is not None else FlowPathKind.DROPPED,
            self.latency_model.inter_group_setup_ms(load),
            self.latency_model.flow_table_hit_ms(),
        )

    def intensity_matrix(self) -> IntensityMatrix:
        """The grouping manager's current measurement window."""
        return self.controller.grouping_manager.recent_matrix

    # -- periodic housekeeping ---------------------------------------------------------

    def _control_tick(self, now: float) -> None:
        """State reports to the C-LIB, then the regrouping check."""
        with self.perf.timeit("dissemination"):
            self.controller.collect_state_reports()
        with self.perf.timeit("regrouping"):
            self.controller.periodic_check(now)

    # -- ControlPlane protocol (runner-facing) ------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Attach an event tracer; the grouping manager publishes regroupings."""
        super().set_tracer(tracer)
        self.controller.grouping_manager.tracer = tracer

    def _fold_plane_counters(self, perf) -> None:
        queries = cache_hits = summaries = installs = 0
        for switch in self._switches.values():
            queries += switch.gfib.query_count
            cache_hits += switch.gfib.query_cache_hits
            summaries += switch.gfib.summaries_built
            installs += switch.gfib.peer_installs
        perf.count("edge.gfib_queries", queries)
        perf.count("edge.gfib_query_cache_hits", cache_hits)
        perf.count("edge.gfib_summaries_built", summaries)
        perf.count("edge.gfib_peer_installs", installs)
        perf.count("controller.arp_relays", self.controller.arp_relays)
        perf.count("controller.group_config_messages", self.controller.group_config_messages)

    def updates_per_hour(self, *, hours: int) -> List[float]:
        """Grouping updates per hour bucket (Fig. 8)."""
        return self.controller.grouping_manager.updates_per_hour(hours=hours)

    # -- churn hooks (workload dynamics) ------------------------------------------------

    def churn_migrate_host(self, host_id: int, new_switch_id: int, *, now: float = 0.0) -> None:
        """Live-migrate one VM; L-FIB/G-FIB/C-LIB state follows (§III-D.3)."""
        self.disseminator.migrate_host(host_id, new_switch_id)
        self.controller.grouping_manager.note_churn()

    def churn_tenant_arrival(self, name: str, placements, *, now: float = 0.0) -> int:
        """A tenant arrives: one VM per placement switch boots and ARPs."""
        tenant = self.network.tenants.create_tenant(name)
        for switch_id in placements:
            host = self.network.attach_host(switch_id, tenant.tenant_id)
            self.disseminator.host_appeared(host.host_id)
            self.controller.clib.record_host(host.mac, host.switch_id, host.tenant_id)
            self.controller.tenant_manager.note_host_location(host.tenant_id, host.switch_id)
        self.controller.grouping_manager.note_churn(len(placements))
        return tenant.tenant_id

    def churn_tenant_departure(self, tenant_id: int, *, now: float = 0.0) -> int:
        """A tenant departs: every VM is decommissioned and state cleaned up."""
        host_ids = list(self.network.tenants.get(tenant_id).host_ids)
        for host_id in host_ids:
            self.disseminator.host_departed(host_id)
        self.network.remove_tenant(tenant_id)
        self.controller.tenant_manager.refresh()
        self.controller.grouping_manager.note_churn(len(host_ids))
        return len(host_ids)

    def churn_attributed_regroupings(self) -> int:
        """Grouping updates applied while topology churn was pending."""
        return self.controller.grouping_manager.churn_attributed_update_count

    # -- failure injection -------------------------------------------------------------

    def inject_failures(self, *, count: int = 1, now: float = 0.0) -> List:
        """Fail the designated switch of the ``count`` largest groups.

        Each victim goes through the full §III-E cycle: the keep-alive wheel
        detects the failure, the failover manager promotes a backup and
        issues the remote reboot, and the switch then comes back and
        re-synchronizes group state.  Returns the recovery records and
        appends them to :attr:`failover_records`.
        """
        from repro.failover.detection import FailureDetector
        from repro.failover.recovery import FailoverManager

        records: List = []
        groups = sorted(self.controller.groups.values(), key=len, reverse=True)
        for group in groups[:count]:
            if len(group) < 2 or not group.backup_switch_ids:
                continue
            victim = group.designated_switch_id
            group.member(victim).failed = True
            detector = FailureDetector(group)
            manager = FailoverManager(self.controller, group)
            records.extend(manager.handle_all(detector.detect(now=now), now=now))
            group.member(victim).failed = False
            records.extend(manager.complete_switch_recovery(victim, now=now))
        self.failover_records.extend(records)
        return records


class OpenFlowSystem(EdgePlane):
    """The baseline: every flow set up reactively by the central controller."""

    controller: OpenFlowController

    def __init__(
        self,
        network: DataCenterNetwork,
        *,
        config: LazyCtrlConfig | None = None,
        workload_bucket_seconds: float = 7200.0,
        latency_bucket_seconds: float = 7200.0,
    ) -> None:
        super().__init__(
            network,
            OpenFlowController(workload_bucket_seconds=workload_bucket_seconds),
            config=config or LazyCtrlConfig(),
            latency_bucket_seconds=latency_bucket_seconds,
        )
        for host in network.hosts():
            self._switches[host.switch_id].attach_host(host.mac, host.port, host.tenant_id)

    def _make_switch(self, info: EdgeSwitchInfo) -> EdgeSwitch:
        return EdgeSwitch(
            info.switch_id,
            management_mac=info.management_mac,
            flow_table_config=self.config.flow_table,
        )

    def _resolve_miss(
        self, key: FlowKey, src_switch_id: int, dst_switch_id: int, now: float
    ) -> MissResolution:
        """Every table miss goes to the controller for reactive setup."""
        load = self.controller.current_load_rps(now)
        result = self.controller.handle_packet_in(
            src_switch_id, key, now, true_destination_switch=dst_switch_id
        )
        return (
            FlowPathKind.CONTROLLER_REACTIVE,
            self.latency_model.openflow_reactive_ms(
                load, needs_location_learning=result.needed_location_learning
            ),
            self.latency_model.flow_table_hit_ms(),
        )

    def _fold_plane_counters(self, perf) -> None:
        perf.count("controller.arp_floods", self.controller.arp_floods)

    # -- churn hooks (workload dynamics) ------------------------------------------------
    #
    # The baseline experiences the identical churn stream as LazyCtrl; a
    # migration or boot shows up as the usual hypervisor-driven gratuitous
    # ARP, which the learning controller absorbs without regrouping.

    def churn_migrate_host(self, host_id: int, new_switch_id: int, *, now: float = 0.0) -> None:
        """Live-migrate one VM; the learning switch tables follow."""
        host = self.network.host(host_id)
        old_switch_id = host.switch_id
        if old_switch_id == new_switch_id:
            return
        migrated = self.network.migrate_host(host_id, new_switch_id)
        self._switches[old_switch_id].detach_host(migrated.mac)
        self._switches[new_switch_id].attach_host(migrated.mac, migrated.port, migrated.tenant_id)
        # The gratuitous ARP after migration re-teaches the controller.
        self.controller.learn_location(migrated.mac, new_switch_id)

    def churn_tenant_arrival(self, name: str, placements, *, now: float = 0.0) -> int:
        """A tenant arrives: one VM per placement switch boots and ARPs."""
        tenant = self.network.tenants.create_tenant(name)
        for switch_id in placements:
            host = self.network.attach_host(switch_id, tenant.tenant_id)
            self._switches[switch_id].attach_host(host.mac, host.port, host.tenant_id)
            self.controller.learn_location(host.mac, switch_id)
        return tenant.tenant_id

    def churn_tenant_departure(self, tenant_id: int, *, now: float = 0.0) -> int:
        """A tenant departs: every VM is decommissioned and forgotten."""
        host_ids = list(self.network.tenants.get(tenant_id).host_ids)
        for host_id in host_ids:
            host = self.network.host(host_id)
            self._switches[host.switch_id].detach_host(host.mac)
            self.controller.forget_location(host.mac)
            self.network.remove_host(host_id)
        self.network.tenants.remove_tenant(tenant_id)
        return len(host_ids)
