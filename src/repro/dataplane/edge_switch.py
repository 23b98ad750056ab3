"""Edge switches: the shared base and the LazyCtrl switch built on it.

:class:`EdgeSwitch` is what every edge switch of the simulated data center
is: an identity (its management MAC), an L-FIB of locally attached virtual
machines, a flow table of controller-installed rules wired to report
``flow_removed``, and the per-packet counters the evaluation reads.  With
no G-FIB it is the baseline OpenFlow switch, whose every miss past the
L-FIB is a ``Packet_In``; :class:`LazyCtrlEdgeSwitch` adds the Bloom-filter
G-FIB summarizing the L-FIBs of its Local Control Group peers (the third
table of paper Fig. 4) and the receiving half of Fig. 5.

A switch is a pure control-logic model: forwarding answers a
:class:`~repro.dataplane.decisions.RunVerdict` that the planes turn into
latency and workload accounting.  The data path of Fig. 5 (flow table →
L-FIB → G-FIB → ``Packet_In``) is written once, for a *run* of packets of
one flow key: :meth:`EdgeSwitch.classify_run` reads what every packet of the
run does and :meth:`EdgeSwitch.apply_run` writes what they change.  The run
of one is :meth:`EdgeSwitch.forward_key`, what the planes call per flow; the
vectorized kernel (:mod:`repro.kernel`) asks the same two methods about a
batch's whole (src, dst) pairs.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional

from repro.common.addresses import MacAddress
from repro.common.config import BloomFilterConfig, FlowTableConfig
from repro.common.errors import ControlPlaneError
from repro.common.packets import DATA_PACKET_BYTES, FlowKey
from repro.datastructures.bloom import BloomFilter
from repro.datastructures.fib import GroupFib, LocalFib
from repro.datastructures.flow_table import ActionType, FlowAction, FlowRule, FlowTable
from repro.dataplane.decisions import DROPPED, INTRA_GROUP, LOCAL, PUNT, TABLE_HIT, RunVerdict
from repro.tables.policies import RemovalReason

#: Rule actions that forward; only these let a run be a run of table hits.
_FORWARDING_ACTIONS = (ActionType.FORWARD_LOCAL, ActionType.ENCAP_TO_SWITCH)

#: Callback a controller registers to receive ``flow_removed`` notifications:
#: ``(switch_id, rule, now, reason)``.
FlowRemovedHandler = Callable[[int, FlowRule, float, RemovalReason], None]


class EdgeSwitch:
    """An edge switch: identity, L-FIB, flow table, counters; the OpenFlow baseline as is."""

    #: ``None`` on a switch (the OpenFlow baseline) that belongs to no group.
    gfib: Optional[GroupFib] = None

    def __init__(
        self,
        switch_id: int,
        *,
        management_mac: MacAddress,
        flow_table_config: FlowTableConfig | None = None,
    ) -> None:
        self.switch_id = switch_id
        self.management_mac = management_mac
        self.lfib = LocalFib()
        self.flow_table = FlowTable(flow_table_config)
        self.flow_table.removed_listener = self._on_rule_removed
        self.flow_removed_handler: Optional[FlowRemovedHandler] = None
        self.failed = False
        # Counters used by the evaluation.
        self.packets_processed = 0
        self.packets_to_controller = 0
        # Copies beyond the first sent on G-FIB answers (0 without a G-FIB).
        self.duplicate_deliveries = 0

    # -- host management ----------------------------------------------------

    def attach_host(self, mac: MacAddress, port: int, tenant_id: int) -> bool:
        """Learn a locally attached VM; returns ``True`` when the L-FIB changed."""
        return self.lfib.learn(mac, port, tenant_id)

    def detach_host(self, mac: MacAddress) -> bool:
        """Forget a locally attached VM (migration away or removal)."""
        return self.lfib.forget(mac)

    # -- the data path of Fig. 5, for a run of packets -------------------------

    def classify_run(
        self, key: FlowKey, first_t: float, max_gap: float, last_t: float
    ) -> Optional[RunVerdict]:
        """What a run of data packets of flow ``key`` from a local host does here.

        The packets arrive from ``first_t`` to ``last_t``, consecutive ones at
        most ``max_gap`` apart.  Pure: nothing on the switch changes.  The
        verdict holds for every packet of the run; ``None`` means the run is
        undecidable in bulk — a rule is resident but may expire within the
        run, is governed by a stateful policy, or drops / punts explicitly —
        and its packets must be processed one at a time.
        """
        table = self.flow_table
        rule = table.peek(key)
        if rule is None:
            return self._classify_miss(key)
        if rule.action.kind in _FORWARDING_ACTIONS and table.stays_alive(
            rule, first_t, max_gap, last_t
        ):
            return RunVerdict(TABLE_HIT, key, rule)
        return None

    def _classify_miss(self, key: FlowKey) -> RunVerdict:
        """Past a table miss: L-FIB, then G-FIB, else the controller."""
        entry = self.lfib.lookup(key.dst_mac)
        if entry is not None:
            return RunVerdict(LOCAL, key, None, entry.port)
        if self.gfib is not None:
            # The G-FIB answers a sorted (memoized) tuple of candidates.
            candidates = self.gfib.peek(key.dst_mac)
            if candidates:
                return RunVerdict(INTRA_GROUP, key, None, None, candidates)
        return RunVerdict(PUNT, key)

    def apply_run(
        self, verdict: RunVerdict, n: int, last_t: float, size_bytes: int = DATA_PACKET_BYTES
    ) -> None:
        """What ``n`` packets of a classified run, the last at ``last_t``, change here.

        Exactly what ``n`` :meth:`forward_key` calls would: ``verdict`` must
        come from :meth:`classify_run` over those arrivals, with no change to
        the switch in between.
        """
        self.packets_processed += n
        self.flow_table.account_run(verdict.rule, n, last_t, size_bytes)
        if verdict.rule is None:
            self._apply_miss(verdict, n)

    def _apply_miss(self, verdict: RunVerdict, n: int) -> None:
        """What ``n`` packets count past the table miss :meth:`_classify_miss` judged."""
        if verdict.outcome is LOCAL:
            return
        if self.gfib is not None:
            self.gfib.account_queries(verdict.key.dst_mac, verdict.target_switches, n)
        if verdict.outcome is INTRA_GROUP:
            self.duplicate_deliveries += (len(verdict.target_switches) - 1) * n
        else:
            self.packets_to_controller += n

    def forward_key(self, key: FlowKey, now: float, size_bytes: int = DATA_PACKET_BYTES) -> RunVerdict:
        """Lines 1-21 of Fig. 5 for one data packet of ``key`` from a local host: the run of one.

        Applied: whatever the packet changes here has happened.  Beyond
        :meth:`classify_run`'s four outcomes, a failed switch or a ``DROP``
        rule answers ``DROPPED_NO_RULE`` and a ``SEND_TO_CONTROLLER`` rule
        punts, the verdict carrying the rule.
        """
        if self.failed:
            self.packets_processed += 1
            return RunVerdict(DROPPED, key)
        verdict = self.classify_run(key, now, 0.0, now)
        if verdict is not None:
            self.apply_run(verdict, 1, now, size_bytes)
            return verdict
        # A resident rule no run can vouch for.  This packet's own lookup
        # settles it: expires the rule, shows a stateful policy the match,
        # or finds an explicit drop / send-to-controller action.
        self.packets_processed += 1
        rule = self.flow_table.lookup(key, now=now, size_bytes=size_bytes)
        if rule is None:
            verdict = self._classify_miss(key)
            self._apply_miss(verdict, 1)
            return verdict
        kind = rule.action.kind
        if kind in _FORWARDING_ACTIONS:
            return RunVerdict(TABLE_HIT, key, rule)
        if kind == ActionType.DROP:
            return RunVerdict(DROPPED, key, rule)
        self.packets_to_controller += 1
        return RunVerdict(PUNT, key, rule)

    # -- controller-driven configuration --------------------------------------

    def install_flow_rule(self, key: FlowKey, action: FlowAction, *, priority: int = 0, now: float = 0.0) -> None:
        """Install a controller-provided flow rule (Flow_Mod)."""
        self.flow_table.install(key, action, priority=priority, now=now)

    def advance_tables(self, now: float) -> int:
        """Eagerly expire aged flow rules at replay time ``now``.

        Driven from the plane's periodic tick so rules age in lockstep with
        the replay clock; each expiry notifies the controller via the
        ``flow_removed`` hook.  Returns the number of rules removed.
        """
        return len(self.flow_table.expire(now))

    def _on_rule_removed(self, rule: FlowRule, now: float, reason: RemovalReason) -> None:
        """Relay a table-initiated removal as ``flow_removed`` to the controller."""
        if self.flow_removed_handler is not None:
            self.flow_removed_handler(self.switch_id, rule, now, reason)


class LazyCtrlEdgeSwitch(EdgeSwitch):
    """An Open vSwitch-like edge switch extended with L-FIB/G-FIB processing."""

    def __init__(
        self,
        switch_id: int,
        *,
        management_mac: MacAddress,
        bloom_config: BloomFilterConfig | None = None,
        flow_table_config: FlowTableConfig | None = None,
    ) -> None:
        super().__init__(
            switch_id,
            management_mac=management_mac,
            flow_table_config=flow_table_config,
        )
        self.gfib = GroupFib(bloom_config)
        self.group_id: Optional[int] = None
        self.is_designated = False
        self.false_positive_drops = 0

    def local_hosts(self) -> list[MacAddress]:
        """MAC addresses of all locally attached VMs."""
        return self.lfib.macs()

    # -- group membership ----------------------------------------------------

    def join_group(self, group_id: int, *, designated: bool = False) -> None:
        """Join a Local Control Group (clears the G-FIB; peers are installed next)."""
        self.group_id = group_id
        self.is_designated = designated
        self.gfib.clear()

    def summarize_lfib(self) -> BloomFilter:
        """The Bloom summary of this switch's L-FIB, built now: what its group peers hold."""
        return self.gfib.summarize(self.lfib.macs())

    def install_peer_summary(self, peer_switch_id: int, summary: BloomFilter, macs: Collection[MacAddress]) -> None:
        """Install/update the G-FIB entry for a peer with the ``summary`` it built of its ``macs``."""
        if peer_switch_id == self.switch_id:
            raise ControlPlaneError("a switch does not keep a G-FIB entry for itself")
        self.gfib.install_summary(peer_switch_id, summary, macs)

    # -- the receiving half of Fig. 5 -----------------------------------------

    def receive_run(self, dst_mac: MacAddress, n: int) -> bool:
        """Lines 22-29 of Fig. 5 for ``n`` copies of a packet to ``dst_mac`` sent over the underlay.

        Returns whether they were dropped as a false positive: the sender's
        Bloom filter matched, yet the destination is not in this L-FIB.
        """
        self.packets_processed += n
        if self.failed or dst_mac in self.lfib:
            return False
        self.false_positive_drops += n
        return True

    def __repr__(self) -> str:
        return (
            f"LazyCtrlEdgeSwitch(id={self.switch_id}, group={self.group_id}, "
            f"hosts={len(self.lfib)}, designated={self.is_designated})"
        )
