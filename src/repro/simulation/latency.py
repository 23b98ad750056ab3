"""Latency model for the emulated substrate.

The paper's prototype measures forwarding latency on real hardware.  Our
substitute is an analytic latency model calibrated so the *relative*
behaviour matches §V-E: intra-group forwarding is handled entirely in the
data plane (sub-millisecond), inter-group and reactive paths pay a
controller round trip whose cost grows with the controller's current load,
and the baseline additionally pays ARP-flood-driven topology learning.

Every method returns a latency contribution in **milliseconds**; callers sum
the contributions of the path a packet actually takes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import LatencyModelConfig

# Calibration of the substrate, in milliseconds.  The values make the
# cold-cache experiment reproduce the magnitudes §V-E reports: about 0.83 ms
# for intra-group forwarding, about 5.4 ms for LazyCtrl inter-group setup,
# and about 15 ms for the baseline OpenFlow reactive path.
DATAPATH_LOOKUP_MS = 0.03
ENCAPSULATION_MS = 0.05
UNDERLAY_HOP_MS = 0.25
HOST_LINK_MS = 0.25
CONTROLLER_RTT_MS = 2.0
CONTROLLER_BASE_PROCESSING_MS = 1.2
CONTROLLER_PER_KRPS_PENALTY_MS = 1.4
ARP_FLOOD_MS = 4.0
# The queueing term's offered load is capped below 1, where the M/M/1 form
# ``rho / (1 - rho)`` diverges.
QUEUEING_UTILIZATION_CAP = 0.95


@dataclass(frozen=True, slots=True)
class LatencyBreakdown:
    """A total latency and the named contributions it is made of."""

    total_ms: float
    components: dict[str, float]

    @classmethod
    def build(cls, **components: float) -> "LatencyBreakdown":
        """Create a breakdown from keyword component values."""
        return cls(total_ms=sum(components.values()), components=dict(components))


class LatencyModel:
    """Analytic latency model shared by both control-plane designs.

    The ``*_ms`` methods are allocation-free fast paths for the replay hot
    loop: they return the same totals as the corresponding breakdown methods
    (identical floating-point summation order) without building the
    per-component dict for every replayed flow.
    """

    def __init__(self, config: LatencyModelConfig | None = None) -> None:
        self._config = config or LatencyModelConfig()
        # Load-independent totals are pure functions of the constants: compute
        # them once through the breakdown methods so both paths stay equal
        # bit for bit.
        self._local_ms = self.local_delivery().total_ms
        self._flow_table_hit_ms = self.flow_table_hit_delivery().total_ms
        self._intra_group_ms: dict[int, float] = {}

    # -- allocation-free totals (hot path) --------------------------------

    def local_delivery_ms(self) -> float:
        """Total of :meth:`local_delivery` without building the breakdown."""
        return self._local_ms

    def flow_table_hit_ms(self) -> float:
        """Total of :meth:`flow_table_hit_delivery` without the breakdown."""
        return self._flow_table_hit_ms

    def intra_group_ms(self, duplicate_targets: int = 1) -> float:
        """Total of :meth:`intra_group_delivery`, memoized per target count."""
        total = self._intra_group_ms.get(duplicate_targets)
        if total is None:
            total = self.intra_group_delivery(duplicate_targets=duplicate_targets).total_ms
            self._intra_group_ms[duplicate_targets] = total
        return total

    def inter_group_setup_ms(self, controller_load_rps: float) -> float:
        """Total of :meth:`inter_group_setup` without building the breakdown.

        The additions run left to right in the breakdown's component order,
        so the result is bit-identical to ``inter_group_setup(...).total_ms``.
        """
        return (
            2 * DATAPATH_LOOKUP_MS
            + CONTROLLER_RTT_MS
            + self.controller_processing(controller_load_rps)
            + CONTROLLER_RTT_MS / 2
            + ENCAPSULATION_MS
            + UNDERLAY_HOP_MS
            + DATAPATH_LOOKUP_MS
            + HOST_LINK_MS
        )

    def openflow_reactive_ms(self, controller_load_rps: float, *, needs_location_learning: bool) -> float:
        """Total of :meth:`openflow_reactive_setup` without the breakdown.

        Bit-identical to ``openflow_reactive_setup(...).total_ms`` (same
        left-to-right component order, learning terms appended last).
        """
        total = (
            DATAPATH_LOOKUP_MS
            + CONTROLLER_RTT_MS
            + self.controller_processing(controller_load_rps)
            + CONTROLLER_RTT_MS / 2
            + UNDERLAY_HOP_MS
            + DATAPATH_LOOKUP_MS
            + HOST_LINK_MS
        )
        if needs_location_learning:
            total = total + ARP_FLOOD_MS + 2 * CONTROLLER_RTT_MS
        return total

    def queueing_delay_ms(self, utilization: float) -> float:
        """Total of :meth:`queueing_delay` without building the breakdown.

        Same guard and same arithmetic as the breakdown method, so the two
        stay bit-identical for every (config, utilization) pair.
        """
        cfg = self._config
        if cfg.queueing_service_ms <= 0.0 or utilization <= 0.0:
            return 0.0
        rho = min(utilization, QUEUEING_UTILIZATION_CAP)
        return cfg.queueing_service_ms * rho / (1.0 - rho)

    # -- data-plane-only paths -------------------------------------------

    def local_delivery(self) -> LatencyBreakdown:
        """Source and destination host on the same edge switch."""
        return LatencyBreakdown.build(
            lookup=DATAPATH_LOOKUP_MS,
            host_link=HOST_LINK_MS,
        )

    def intra_group_delivery(self, duplicate_targets: int = 1) -> LatencyBreakdown:
        """Destination resolved by the G-FIB inside the same Local Control Group.

        ``duplicate_targets`` is the number of candidate switches returned by
        the Bloom-filter query (false positives add encapsulation work at the
        source but not to the critical path of the true copy).
        """
        extra_encap = ENCAPSULATION_MS * max(0, duplicate_targets - 1) * 0.5
        return LatencyBreakdown.build(
            lookup=DATAPATH_LOOKUP_MS,
            gfib_query=DATAPATH_LOOKUP_MS,
            encapsulation=ENCAPSULATION_MS + extra_encap,
            underlay=UNDERLAY_HOP_MS,
            remote_lookup=DATAPATH_LOOKUP_MS,
            host_link=HOST_LINK_MS,
        )

    def flow_table_hit_delivery(self) -> LatencyBreakdown:
        """A packet matching an already-installed flow rule (both designs)."""
        return LatencyBreakdown.build(
            lookup=DATAPATH_LOOKUP_MS,
            encapsulation=ENCAPSULATION_MS,
            underlay=UNDERLAY_HOP_MS,
            remote_lookup=DATAPATH_LOOKUP_MS,
            host_link=HOST_LINK_MS,
        )

    # -- controller-involved paths ---------------------------------------

    def controller_processing(self, controller_load_rps: float) -> float:
        """Controller processing time as a function of its current load.

        The per-request cost grows linearly with the load expressed in
        thousands of requests per second, reflecting queueing at a
        single-server controller well below saturation.
        """
        load_krps = max(0.0, controller_load_rps) / 1000.0
        return CONTROLLER_BASE_PROCESSING_MS + CONTROLLER_PER_KRPS_PENALTY_MS * load_krps

    def inter_group_setup(self, controller_load_rps: float) -> LatencyBreakdown:
        """First packet of an inter-group flow under LazyCtrl.

        The controller already knows host locations from the C-LIB, so the
        setup is one Packet_In round trip plus rule installation.
        """
        return LatencyBreakdown.build(
            lookup=2 * DATAPATH_LOOKUP_MS,
            packet_in=CONTROLLER_RTT_MS,
            controller=self.controller_processing(controller_load_rps),
            flow_mod=CONTROLLER_RTT_MS / 2,
            encapsulation=ENCAPSULATION_MS,
            underlay=UNDERLAY_HOP_MS,
            remote_lookup=DATAPATH_LOOKUP_MS,
            host_link=HOST_LINK_MS,
        )

    def openflow_reactive_setup(self, controller_load_rps: float, *, needs_location_learning: bool) -> LatencyBreakdown:
        """First packet of a flow under the baseline reactive OpenFlow control.

        When the controller has not yet learned the destination location it
        must flood/learn via ARP across the whole network, which is the
        dominant part of the 15 ms cold-cache latency the paper reports.
        """
        components = {
            "lookup": DATAPATH_LOOKUP_MS,
            "packet_in": CONTROLLER_RTT_MS,
            "controller": self.controller_processing(controller_load_rps),
            "flow_mod": CONTROLLER_RTT_MS / 2,
            "underlay": UNDERLAY_HOP_MS,
            "remote_lookup": DATAPATH_LOOKUP_MS,
            "host_link": HOST_LINK_MS,
        }
        if needs_location_learning:
            components["arp_flood"] = ARP_FLOOD_MS
            components["learning_round_trip"] = 2 * CONTROLLER_RTT_MS
        return LatencyBreakdown(total_ms=sum(components.values()), components=components)

    def queueing_delay(self, utilization: float) -> LatencyBreakdown:
        """M/M/1-style queueing on one capacitated uplink at ``utilization``.

        The offered load ``rho`` is capped strictly below 1 (the classic
        ``rho / (1 - rho)`` form diverges at saturation), so overloaded
        links — utilization above 1.0 — pay the capped worst case rather
        than an unbounded delay.  A zero service time disables the term.
        """
        cfg = self._config
        if cfg.queueing_service_ms <= 0.0 or utilization <= 0.0:
            return LatencyBreakdown.build(queueing=0.0)
        rho = min(utilization, QUEUEING_UTILIZATION_CAP)
        return LatencyBreakdown.build(
            queueing=cfg.queueing_service_ms * rho / (1.0 - rho)
        )
