"""What the LazyCtrl controller and the OpenFlow baseline controller share.

Edge switches connect to both; every ``Packet_In`` they serve is one unit of
controller workload (the quantity Fig. 7 plots); they answer by installing a
forwarding rule on the ingress switch; and switches tell them when a finite
flow table aged a rule out.  How a controller *locates* the destination of a
``Packet_In`` is the subclass's business.
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import ControlPlaneError
from repro.common.packets import FlowKey
from repro.datastructures.flow_table import ActionType, FlowAction
from repro.dataplane.edge_switch import EdgeSwitch
from repro.obs.tracer import NULL_TRACER
from repro.perf.recorder import NULL_RECORDER
from repro.simulation.metrics import CounterSeries, WorkloadMeter


class EdgeController:
    """Switch registry, workload accounting and forwarding-rule installs."""

    def __init__(self, *, workload_bucket_seconds: float = 7200.0) -> None:
        self._switches: Dict[int, EdgeSwitch] = {}
        self.workload_series = CounterSeries(workload_bucket_seconds)
        self.workload_meter = WorkloadMeter(window_seconds=60.0)
        self.perf = NULL_RECORDER
        self.tracer = NULL_TRACER
        self.total_requests = 0
        self.flow_mods_sent = 0
        self.flow_removed_received = 0

    # -- switch registration ---------------------------------------------------

    def register_switch(self, switch: EdgeSwitch) -> None:
        """Connect an edge switch to the controller."""
        self._switches[switch.switch_id] = switch
        switch.flow_removed_handler = self.handle_flow_removed

    def switch(self, switch_id: int) -> EdgeSwitch:
        """Return a registered switch by id."""
        try:
            return self._switches[switch_id]
        except KeyError as exc:
            raise ControlPlaneError(f"switch {switch_id} is not registered with the controller") from exc

    # -- workload accounting -----------------------------------------------------

    def current_load_rps(self, now: float) -> float:
        """Controller load (requests per second) over the recent window."""
        return self.workload_meter.rate(now)

    def _record_request(self, switch_id: int, now: float, kind: str) -> None:
        """Account one request served for ``switch_id``; ``kind`` labels its trace event."""
        self.total_requests += 1
        self.workload_series.record(now)
        self.workload_meter.record(now)
        self.perf.count("controller.requests")
        if self.tracer.enabled:
            from repro.obs.events import PacketInEvent

            self.tracer.emit(PacketInEvent(time=now, switch_id=switch_id, kind=kind))

    # -- flow-table management -----------------------------------------------------

    def _install_forwarding_rule(
        self, ingress_switch_id: int, key: FlowKey, egress_switch_id: int, now: float
    ) -> None:
        """Install the rule that forwards flow ``key`` towards ``egress_switch_id``."""
        switch = self._switches.get(ingress_switch_id)
        if switch is None:
            return
        if egress_switch_id == ingress_switch_id:
            entry = switch.lfib.lookup(key.dst_mac)
            action = FlowAction(ActionType.FORWARD_LOCAL, entry.port if entry else 1)
        else:
            action = FlowAction(ActionType.ENCAP_TO_SWITCH, egress_switch_id)
        switch.install_flow_rule(key, action, now=now)
        self.flow_mods_sent += 1
        if self.tracer.enabled:
            from repro.obs.events import FlowInstallEvent

            self.tracer.emit(
                FlowInstallEvent(
                    time=now,
                    switch_id=ingress_switch_id,
                    egress_switch_id=egress_switch_id,
                )
            )

    def handle_flow_removed(self, switch_id: int, rule, now: float, reason) -> None:
        """Note a ``flow_removed`` sent by a switch whose table aged out a rule.

        The notification is asynchronous bookkeeping, not a request for new
        state: it is counted separately from ``total_requests`` so finite
        tables change the controller's *re-install* load (via the subsequent
        ``packet_in``), never the workload accounting of the removal itself.
        """
        self.flow_removed_received += 1
        self.perf.count("controller.flow_removed")
        if self.tracer.enabled:
            from repro.obs.events import FlowRemovedEvent

            self.tracer.emit(
                FlowRemovedEvent(time=now, switch_id=switch_id, reason=reason.value)
            )
