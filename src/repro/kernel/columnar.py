"""The columnar batch engine behind ``kernel=vectorized``.

One kernel instance wraps one control plane for one replay and is invoked by
:class:`~repro.traffic.replay.TraceReplayer` once per batch: up to
:data:`~repro.traffic.replay.KERNEL_BATCH_FLOWS` flows within one stream
chunk and before the next control (churn) event, together with the periodic
ticks that fall among them.  (A replay whose ticks do more than the plane's
own housekeeping — failure injection — or are traced cuts a batch at every
tick instead, and the batch holds no tick.)  The batch arrives as a
:class:`~repro.traffic.chunk.FlowChunk` view whose column buffers are
wrapped as numpy arrays without a copy, and goes through five steps:

* **classify** — the flows are grouped by (src host, dst host) pair and each
  pair's arrival structure (first, largest gap, last) is put to its ingress
  switch: :meth:`~repro.dataplane.edge_switch.EdgeSwitch.classify_run`, the
  question ``forward_key`` asks for a run of one.  A local delivery or an
  intra-group forward is a *decided* pair, one bulk run over the batch: with
  no rule resident only the pair's own punt could install one, and it has
  none.  A pair with a resident rule, or whose first flow punts, is a *rule*
  pair: its flows are cut into *segments* wherever its rule's idle timer can
  fire (a gap longer than the table policy's idle bound) and, on a plane
  whose ticks can regroup, at every tick.  A pair under a stateful table
  policy (no bounds) is a ``FALLBACK`` pair; a pair with an endpoint that no
  longer exists is ``DEPARTED``.
* **guard** — two things one pair can do to another within a batch, asked of
  their owners: a punt's rule install can evict (so where the batch's new
  keys can fill a table, that switch's rule flows from the install that fills
  it on are walked flow by flow), and a G-FIB memo can fill up and clear
  (so where a G-FIB's :meth:`~repro.datastructures.fib.GroupFib.cache_room`
  could run out, intra-group runs are applied flow by flow on the ordered walk).
* **walk** — what is order-dependent, in arrival order, with the ticks as
  events of the same walk: a tick fires after every flow before it and
  before every flow at or after it, so sweeps, state reports and the
  controller's workload meter see what they see scalar.  Fallback flows go
  through :meth:`~repro.core.system.EdgePlane.first_packet`, the packet-in
  step the plane's own ``flow_arrival`` takes, on the pair's memoized flow
  key and the time column.  A segment is an event at its first flow: it is
  classified there; a table hit is applied whole at once, a miss walks its
  head through ``first_packet`` and applies the rest against the rule the
  head installed.  A tick the plane says may change forwarding
  (:meth:`~repro.core.system.EdgePlane.regroup_due`) ends the batch: only
  the flows before it are handled, and the replayer fires it next.  No
  :class:`~repro.traffic.flow.FlowRecord` is built — nor for a batch bypassed
  whole, which takes the scalar replayer's own column walk
  (:func:`~repro.traffic.replay.tick_walk`).
* **meter** — under a link meter, the batch's inter-switch flows are charged
  to their two uplinks in one
  :meth:`~repro.core.system.EdgePlane.link_penalties_ms` call on the start /
  duration / byte columns: the step ``flow_arrival``'s
  ``congestion_penalty_ms`` takes for a run of one.
  The meter is order-dependent among those flows only — it reads nothing the
  walk writes — so it is a pass of its own (``kernel.flows_metered`` flows,
  the ``kernel_meter`` stage) rather than a reason to walk the whole batch.
* **apply and fold** — each decided pair is applied once for its ``n``
  flows — :meth:`~repro.dataplane.edge_switch.EdgeSwitch.apply_run` at the
  switch, :meth:`~repro.core.system.EdgePlane.settle_run` at the plane, the
  calls ``forward_key`` and ``first_packet`` make with ``n = 1`` — each rule
  pair's table hits are settled once, and the whole batch, walked flows
  included (``first_packet`` records nothing), is folded into the latency
  recorder, the intensity window and the timeline.

Why applying a segment at its first flow is exact when ticks fire inside it:
the segment's gaps vouch its rule alive at every sweep inside it, and the
early ``last_matched_at`` (its last flow's arrival) is at or after the sweep,
so the sweep keeps the rule as it would scalar; only the pair's own key
matches the rule, and the eviction guard rules out evictions.  A decided
pair's bulk run is applied after the walk: a tick reads nothing it writes,
and a tick that could change its verdict ends the batch first.

The kernel owns no forwarding rule: what a pair does and what that changes
is the switch's and the plane's.  What it owns is the batch arithmetic, whose
contract is bit-identity with the scalar replayer:

* bucket sums in :class:`~repro.simulation.metrics.LatencyRecorder` are
  sequential left folds in arrival order; the kernel replays the identical
  fold (:func:`fold_sum`) over the per-flow ``first`` and
  ``steady * (packet_count - 1)`` terms interleaved exactly as the scalar
  ``record`` calls would produce them (``numpy`` float64 arithmetic is
  IEEE-754 double arithmetic, the same operations in the same order);
* a flow's latency is its pair's price plus what the meter pass found for it
  (a congestion penalty, or 0.0): the scalar ``price += penalty`` is the same
  one addition, and adding 0.0 changes no bit of a positive price;
* ``numpy.floor_divide`` on float64 matches CPython's float ``//`` bit for
  bit, so bucket indices agree with ``int(timestamp // bucket_seconds)``;
* the intensity matrix accumulates ``+= 1.0`` per flow: the final float is
  a function of the *number* of adds only, but dict insertion order feeds
  later float folds (``merge``/``pairs``), so the kernel replays all pairs
  in first-arrival order through ``record_many``;
* integer counters are order-free, so a pair's ``n`` flows count at once.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.packets import FlowKey
from repro.dataplane.decisions import INTRA_GROUP, PUNT, TABLE_HIT, RunVerdict
from repro.obs.timeline import latency_bin
from repro.perf.recorder import NULL_RECORDER
from repro.traffic.chunk import FlowChunk
from repro.traffic.replay import tick_walk

# Pair classes.
_FALLBACK = 0
_DECIDED = 1
_INTRA = 2  # decided too; the one kind the ordered walk may have to apply
_DEPARTED = 3
_RULE = 4  # cut into segments, each an event of the ordered walk

#: Host-id packing base for (src, dst) pair codes; ids are far below this.
_CODE_BASE = 1 << 31


def fold_sum(seed: float, addends: np.ndarray) -> float:
    """``seed + addends[0] + addends[1] + ...``, added left to right.

    ``numpy.add.accumulate`` is a sequential fold (unlike ``sum``, which
    pairs), so the result is the Python loop's bit for bit.
    """
    if not addends.size:
        return seed
    return float(np.add.accumulate(np.concatenate(((seed,), addends)))[-1])


class _PairStatic:
    """Host resolution of one (src, dst) pair: flow key, the switches involved
    and the idle bound of its ingress table (``None`` for a stateful policy).

    Host placement holds between churn events, and churn events fire only
    between batches (the replayer cuts a batch at every event), so placement
    is batch-static; a cheap topology token clears the memo when a batch
    sees a migration, arrival or departure.
    """

    __slots__ = ("departed", "src_switch_id", "dst_switch_id", "key", "switch", "idle")

    def __init__(self, *, departed, src_switch_id=-1, dst_switch_id=-1, key=None, switch=None, idle=None):
        self.departed = departed
        self.src_switch_id = src_switch_id
        self.dst_switch_id = dst_switch_id
        self.key = key
        self.switch = switch
        self.idle = idle


class ColumnarReplayKernel:
    """Vectorized batch handler for one :class:`~repro.core.system.EdgePlane`."""

    def __init__(self, plane, *, perf=NULL_RECORDER) -> None:
        self._plane = plane
        self._switches = {switch.switch_id: switch for switch in plane.switches()}
        self._perf = perf
        self._pair_static: Dict[int, _PairStatic] = {}
        self._topology_token: Optional[Tuple[int, int]] = None
        self._min_coverage = 1.0

    # -- helpers ---------------------------------------------------------------

    def _current_topology_token(self) -> Tuple[int, int]:
        versions = 0
        for switch in self._switches.values():
            versions += switch.lfib.version
        return (self._plane.network.host_count(), versions)

    def _pair_info(self, code: int) -> _PairStatic:
        network = self._plane.network
        src_host = network.host_if_present(code // _CODE_BASE)
        dst_host = network.host_if_present(code % _CODE_BASE)
        if src_host is None or dst_host is None:
            info = _PairStatic(departed=True)
        else:
            switch = self._switches[src_host.switch_id]
            bounds = switch.flow_table.policy.timeout_bounds()
            info = _PairStatic(
                departed=False,
                src_switch_id=src_host.switch_id,
                dst_switch_id=dst_host.switch_id,
                key=FlowKey(src_host.mac, dst_host.mac, src_host.tenant_id),
                switch=switch,
                idle=None if bounds is None else bounds[0],
            )
        self._pair_static[code] = info
        return info

    def _scalar_walk(self, batch: FlowChunk, ticks: Sequence[float]) -> Iterator[float]:
        """The whole batch on the scalar replayer's walk, each tick at its place."""
        perf = self._perf
        if perf.enabled:
            perf.count("kernel.batches", 1)
            perf.count("kernel.batches_bypassed", 1)
            perf.count("kernel.ticks_walked", len(ticks))
            perf.count("kernel.flows_fallback", len(batch))
            perf.count("kernel.fallback_bypass", len(batch))
            self._note_coverage(0, len(batch))
        yield from tick_walk(self._plane, batch, ticks)

    def _note_coverage(self, vectorized: int, total: int) -> None:
        if total <= 0:
            return
        coverage = vectorized / total
        if coverage < self._min_coverage:
            self._min_coverage = coverage
        self._perf.gauge("kernel.min_batch_coverage", self._min_coverage)

    # -- the batch entry points ------------------------------------------------

    def __call__(self, batch: FlowChunk) -> None:
        """Handle one batch with no tick inside it."""
        next(self.walk(batch, ()), None)  # no tick to yield: runs to the end

    def walk(self, batch: FlowChunk, ticks: Sequence[float]) -> Iterator[float]:
        """Handle ``batch``, yielding each of ``ticks`` as the ordered walk reaches it.

        ``ticks`` are the periodic ticks after the batch's first arrival and
        at or before its last, ascending; the caller fires each as it is
        yielded.  A tick the plane says may change forwarding is not yielded:
        the walk stops there, and only the flows before it are handled.
        """
        n = len(batch)
        if n == 0:
            return
        plane = self._plane

        # Whole-batch bypass guards: situations the columnar path does not
        # model (rare in practice, always safe to replay scalar).
        if plane.tracer.has_listeners or any(switch.failed for switch in self._switches.values()):
            yield from self._scalar_walk(batch, ticks)
            return
        token = self._current_topology_token()
        if token != self._topology_token:
            if self._topology_token is not None:
                self._pair_static.clear()
            self._topology_token = token

        perf = self._perf
        with perf.timeit("kernel_classify"):
            state = self._classify(batch, n, ticks)
        if state is None:
            yield from self._scalar_walk(batch, ticks)
            return
        reached = yield from self._walk(batch, state, ticks)
        if plane.link_meter is not None:
            with perf.timeit("kernel_meter"):
                self._meter(batch, state, reached)
        with perf.timeit("kernel_accumulate"):
            self._accumulate(state, reached)

        if perf.enabled:
            walked = len(state["walked"])
            perf.count("kernel.batches", 1)
            perf.count("kernel.flows_vectorized", reached - walked)
            perf.count("kernel.flows_fallback", walked)
            for cause, flows in state["fallback_causes"].items():
                perf.count(f"kernel.fallback_{cause}", flows)
            # Units of work done: the bulk runs applied and the segments walked.
            walked_events = state["ev_code"][: bisect_left(state["ev_index"], reached)]
            segments = len(walked_events) - walked_events.count(-1)
            perf.count("kernel.runs", state["bulk_runs"] + segments)
            perf.count("kernel.segments", segments)
            perf.count("kernel.ticks_walked", state["ticks_walked"])
            perf.count("kernel.batch_stops", int(reached < n))
            perf.count("kernel.ordered_intra", int(state["ordered_intra"]))
            self._note_coverage(reached - walked, reached)

    # -- stage 1: classify ------------------------------------------------------

    def _classify(self, batch: FlowChunk, n: int, ticks: Sequence[float] = ()):
        time_column, src_column, dst_column, packet_column, _, _ = batch.columns()
        # Zero-copy, read-only views over the chunk's buffers.
        times = np.frombuffer(time_column, dtype=np.float64)
        src_ids = np.frombuffer(src_column, dtype=np.int64)
        dst_ids = np.frombuffer(dst_column, dtype=np.int64)
        pcs = np.frombuffer(packet_column, dtype=np.int64)
        if src_ids.size and (int(src_ids.max()) >= _CODE_BASE or int(dst_ids.max()) >= _CODE_BASE):
            return None  # host ids beyond the packing base: replay scalar
        codes = src_ids * _CODE_BASE + dst_ids
        uniq, first_index, inverse, counts = np.unique(
            codes, return_index=True, return_inverse=True, return_counts=True
        )
        p = len(uniq)

        # Per-pair arrival structure (pairs are contiguous in a stable sort
        # by pair, each group staying in arrival order).  ``gaps[k]`` is the
        # gap from the pair's previous flow, 0.0 at a pair's first.
        order = np.argsort(inverse, kind="stable")
        sorted_inv = inverse[order]
        sorted_times = times[order]
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        gaps = np.empty(n, dtype=np.float64)
        gaps[0] = 0.0
        np.subtract(sorted_times[1:], sorted_times[:-1], out=gaps[1:])
        gaps[starts] = 0.0
        first_t = sorted_times[starts].tolist()
        last_t = sorted_times[starts + counts - 1].tolist()
        max_gap = np.maximum.reduceat(gaps, starts).tolist()
        counts_list = counts.tolist()

        switches = self._switches
        infos: List[_PairStatic] = []
        cls: List[int] = []
        verdicts: List[Optional[RunVerdict]] = [None] * p
        # Why a fallback pair's flows leave the array path: a packet-in for a
        # key with no rule, or a rule under a stateful policy.
        cause_of: List[Optional[str]] = [None] * p
        rule_switches = set()
        intra_pairs_by_switch: Dict[int, int] = {}
        new_keys_by_switch: Dict[int, List[int]] = {}
        uniq_list = uniq.tolist()

        pair_static_get = self._pair_static.get
        pair_info = self._pair_info
        cls_append = cls.append
        infos_append = infos.append
        for g in range(p):
            code = uniq_list[g]
            info = pair_static_get(code)
            if info is None:
                info = pair_info(code)
            infos_append(info)
            if info.departed:
                cls_append(_DEPARTED)
                continue
            verdict = info.switch.classify_run(info.key, first_t[g], max_gap[g], last_t[g])
            outcome = None if verdict is None else verdict.outcome
            if outcome is None or outcome is TABLE_HIT or outcome is PUNT:
                if outcome is PUNT:
                    # Its first flow is a packet-in, which may install a rule
                    # for a key the table does not hold.
                    cause_of[g] = "punt"
                    new_keys_by_switch.setdefault(info.src_switch_id, []).append(g)
                if info.idle is None:
                    cls_append(_FALLBACK)
                    cause_of[g] = cause_of[g] or "rule_may_expire"
                else:
                    cls_append(_RULE)
                    rule_switches.add(info.src_switch_id)
                continue
            verdicts[g] = verdict
            if outcome is INTRA_GROUP:
                cls_append(_INTRA)
                intra_pairs_by_switch[info.src_switch_id] = (
                    intra_pairs_by_switch.get(info.src_switch_id, 0) + 1
                )
            else:
                cls_append(_DECIDED)

        # Per-switch eviction horizon: where this batch's new keys can fill a
        # table, the first flow of the pair whose install fills it.  No
        # eviction can come before; from there on the switch's rule flows are
        # walked one by one, so eviction order and rule refreshes stay in
        # true order.
        horizon: Dict[int, int] = {}
        for switch_id, punting in new_keys_by_switch.items():
            table = switches[switch_id].flow_table
            room = table.capacity - len(table)
            if switch_id in rule_switches and len(punting) >= room:
                horizon[switch_id] = sorted(first_index[punting].tolist())[room - 1] if room > 0 else 0

        # G-FIB memo guard.  Absent a wholesale clear, a run's query
        # accounting is order-free: every distinct new MAC costs one memo
        # miss no matter which arrival takes it.  Where a memo could fill up
        # this batch (counting every pair that may punt as a potential extra
        # entry), the clear must land where the scalar replayer puts it.
        walking_pairs = cls.count(_FALLBACK) + cls.count(_RULE)
        ordered_intra = any(
            pairs + walking_pairs >= switches[switch_id].gfib.cache_room()
            for switch_id, pairs in intra_pairs_by_switch.items()
        )

        cls_array = np.array(cls, dtype=np.int8)
        cls_flow = cls_array[inverse]
        walk_flows = cls_flow == _FALLBACK
        if ordered_intra:
            walk_flows |= cls_flow == _INTRA
        rule_flow = cls_flow == _RULE
        late_idx = ()
        if horizon:
            pair_horizon = np.array([horizon.get(info.src_switch_id, n) for info in infos])
            late = rule_flow & (np.arange(n) >= pair_horizon[inverse])
            walk_flows |= late
            rule_flow &= ~late
            late_idx = np.flatnonzero(late)
        walk_flow_idx = np.flatnonzero(walk_flows)

        # Segments: a rule pair's flows cut where its rule's idle timer can
        # fire and, where a tick can regroup, at the ticks.  A segment opening
        # past an idle gap, or a pair's first that punts, starts with a miss
        # for sure; any other is classified when its first flow's turn comes.
        rule_flows = rule_flow[order]
        segments: List[tuple] = []
        if rule_flows.any():
            idle = np.array([np.inf if info.idle is None else info.idle for info in infos])
            idle_cut = gaps > idle[sorted_inv]
            cut = idle_cut.copy()
            cut[starts] = True
            cut[1:] |= rule_flows[:-1] & ~rule_flows[1:]  # a pair's walked tail
            live = np.zeros(n, dtype=bool)
            live[starts] = np.array([cause is None for cause in cause_of])
            if ticks and self._plane.ticks_regroup:
                epoch = np.searchsorted(np.asarray(ticks, dtype=np.float64), sorted_times, side="right")
                tick_cut = np.zeros(n, dtype=bool)
                tick_cut[1:] = epoch[1:] != epoch[:-1]
                cut |= tick_cut
                live |= tick_cut & ~idle_cut
            seg_starts = np.flatnonzero(cut)
            seg_ends = np.append(seg_starts[1:], n)
            # Largest gap inside each segment, and inside it past its head.
            inside = np.where(cut, 0.0, gaps)
            seg_max = np.maximum.reduceat(inside, seg_starts)
            second = seg_starts + 1
            inside[second[second < n]] = 0.0
            rest_max = np.maximum.reduceat(inside, seg_starts)
            keep = rule_flows[seg_starts]
            seg_a = seg_starts[keep]
            seg_b = seg_ends[keep]
            segments = list(zip(
                sorted_inv[seg_a].tolist(),
                seg_a.tolist(),
                seg_b.tolist(),
                live[seg_a].tolist(),
                sorted_times[seg_a].tolist(),
                seg_max[keep].tolist(),
                sorted_times[np.minimum(seg_a + 1, seg_b - 1)].tolist(),
                rest_max[keep].tolist(),
                sorted_times[seg_b - 1].tolist(),
            ))
            head_idx = order[seg_a]
            events = np.concatenate((walk_flow_idx, head_idx))
            codes_ev = np.concatenate((np.full(walk_flow_idx.size, -1), np.arange(head_idx.size)))
            by_index = np.argsort(events, kind="stable")
            ev_index = events[by_index].tolist()
            ev_code = codes_ev[by_index].tolist()
        else:
            ev_index = walk_flow_idx.tolist()
            ev_code = [-1] * len(ev_index)

        return {
            "n": n,
            "times": times,
            "pcs": pcs,
            "inverse": inverse,
            "first_index": first_index,
            "counts": counts_list,
            "starts": starts,
            "order": order,
            "sorted_times": sorted_times,
            "gaps": gaps,
            "last_t": last_t,
            "infos": infos,
            "cls": cls,
            "cls_flow": cls_flow,
            "verdicts": verdicts,
            "cause_of": cause_of,
            "ordered_intra": ordered_intra,
            "late": late_idx,
            "ev_index": ev_index,
            "ev_code": ev_code,
            "tick_positions": np.searchsorted(times, ticks, side="left").tolist() if ticks else [],
            # Per segment, :meth:`_segment`'s arguments: pair, first and end
            # position in pair order, whether to classify it live, its first
            # arrival, largest gap, second arrival, largest gap past the head
            # and last arrival.
            "segments": segments,
            # Filled by the walk: flows through first_packet, each rule
            # pair's table hits and the verdict they hit, sub-runs waiting
            # for their first flow's turn.
            "walked": [],
            "hits": [0] * p,
            "hit_verdicts": [None] * p,
            "pending": [],
            "ticks_walked": 0,
            # Per flow: a walked flow's latencies, plus the meter pass's
            # congestion penalty.  Pair prices are added at apply time.
            "first_flow": np.zeros(n, dtype=np.float64),
            "steady_flow": np.zeros(n, dtype=np.float64),
        }

    # -- stage 2: what is order-dependent, in true arrival order ------------------

    def _walk(self, batch, state, ticks: Sequence[float]):
        """Replay, in arrival order, the flows whose handling depends on it, and the ticks.

        Yields each tick when every event before it has been walked; returns
        how many flows were reached: all of them, or those before the tick
        at which the plane may change forwarding.
        """
        perf = self._perf
        plane = self._plane
        regroup_due = plane.regroup_due if plane.ticks_regroup else None
        cursor = 0
        for tick, position in zip(ticks, state["tick_positions"]):
            with perf.timeit("kernel_fallback"):
                cursor = self._walk_until(batch, state, cursor, position)
            if regroup_due is not None and regroup_due(tick):
                return position
            state["ticks_walked"] += 1
            yield tick
        with perf.timeit("kernel_fallback"):
            self._walk_until(batch, state, cursor, state["n"])
        return state["n"]

    def _walk_until(self, batch, state, cursor: int, stop: int) -> int:
        """Walk the events at flows before ``stop``, from event ``cursor``; returns the next cursor.

        A fallback flow takes ``first_packet`` on its pair's memoized key
        and the time column; an intra-group flow on an ordered batch is
        applied alone, so a G-FIB memo clear interleaves with the walked
        flows' own live queries as it would scalar; a segment is classified
        at its first flow.  No record is built.
        """
        ev_index = state["ev_index"]
        end = bisect_left(ev_index, stop, cursor)
        pending = state["pending"]
        if end == cursor:
            if pending and pending[0][0] < stop:
                self._drain(batch, state, stop)
            return end
        ev_code = state["ev_code"]
        first_packet = self._plane.first_packet
        cls_flow = state["cls_flow"]
        inverse = state["inverse"]
        infos = state["infos"]
        verdicts = state["verdicts"]
        times = batch.start_times  # a buffer of doubles: indexing reads a float
        first_flow = state["first_flow"]
        steady_flow = state["steady_flow"]
        walked = state["walked"]
        segments = state["segments"]
        for k in range(cursor, end):
            i = ev_index[k]
            if pending and pending[0][0] < i:
                self._drain(batch, state, i)
            s = ev_code[k]
            if s < 0:
                g = int(inverse[i])
                info = infos[g]
                if cls_flow[i] != _INTRA:
                    _, first_flow[i], steady_flow[i], _, _, _ = first_packet(
                        info.key, info.src_switch_id, info.dst_switch_id, times[i]
                    )
                    walked.append(i)
                else:
                    info.switch.apply_run(verdicts[g], 1, times[i])
                continue
            self._segment(batch, state, *segments[s])
        if pending and pending[0][0] < stop:
            self._drain(batch, state, stop)
        return end

    def _drain(self, batch, state, stop: int) -> None:
        """Walk the waiting sub-runs whose first flow comes before flow ``stop``."""
        pending = state["pending"]
        times = state["sorted_times"]
        gaps = state["gaps"]
        while pending and pending[0][0] < stop:
            _, g, a, b = heappop(pending)
            self._segment(
                batch, state, g, a, b, True,
                float(times[a]), float(gaps[a + 1 : b].max(initial=0.0)),
                float(times[min(a + 1, b - 1)]), float(gaps[a + 2 : b].max(initial=0.0)),
                float(times[b - 1]),
            )

    def _segment(self, batch, state, g, a, b, live, first, gap, second, rest_gap, last) -> None:
        """A rule pair's flows ``a``..``b - 1`` (pair order) at the turn of flow ``a``.

        ``first``, ``second`` and ``last`` are arrival times, ``gap`` the
        largest gap among the flows and ``rest_gap`` among all but the first.
        A ``live`` segment's longest prefix the switch vouches for is applied
        whole.  Otherwise — and always past an idle gap, where the rule is
        surely gone — flow ``a`` takes ``first_packet``, and the rest is asked
        against the rule it met or installed.  What no rule vouches for now
        waits for its own first flow's turn.
        """
        e, verdict = self._vouched(state, g, a, b, first, gap, last) if live else (a, None)
        if e == a:
            info = state["infos"][g]
            i = int(state["order"][a])
            _, state["first_flow"][i], state["steady_flow"][i], _, _, _ = self._plane.first_packet(
                info.key, info.src_switch_id, info.dst_switch_id, first
            )
            state["walked"].append(i)
            a += 1
            if a == b:
                return
            e, verdict = self._vouched(state, g, a, b, second, rest_gap, last)
        if e > a:
            state["infos"][g].switch.apply_run(verdict, e - a, float(state["sorted_times"][e - 1]))
            state["hits"][g] += e - a
            state["hit_verdicts"][g] = verdict
        if e < b:
            heappush(state["pending"], (int(state["order"][e]), g, e, b))

    def _vouched(self, state, g, a, b, first, gap, last) -> Tuple[int, Optional[RunVerdict]]:
        """The largest ``e`` such that flows ``a``..``e - 1`` are table hits now, and their verdict.

        ``e == a`` when not even flow ``a`` is.  Vouching is monotone in the
        run's end (a later last arrival, a gap more), so a bisection over
        ``classify_run`` finds it when the switch cannot vouch for the whole.
        """
        info = state["infos"][g]
        classify_run = info.switch.classify_run
        verdict = classify_run(info.key, first, gap, last)
        if verdict is not None:
            return (b, verdict) if verdict.outcome is TABLE_HIT else (a, None)
        times = state["sorted_times"]
        prefix_gap = np.maximum.accumulate(state["gaps"][a + 1 : b]).tolist()

        def vouch(e: int) -> Optional[RunVerdict]:
            verdict = classify_run(info.key, first, prefix_gap[e - a - 2] if e - a > 1 else 0.0, float(times[e - 1]))
            return verdict if verdict is not None and verdict.outcome is TABLE_HIT else None

        best = vouch(a + 1)
        if best is None:
            return a, None
        low, high = a + 1, b - 1
        while low < high:
            middle = (low + high + 1) // 2
            verdict = vouch(middle)
            if verdict is None:
                high = middle - 1
            else:
                low, best = middle, verdict
        return low, best

    # -- stage 3: what the uplinks add, in one pass ----------------------------------

    def _meter(self, batch: FlowChunk, state, reached: int) -> None:
        """Charge the inter-switch flows among the first ``reached`` to their uplinks, in arrival order.

        The meter reads a flow's start, duration and bytes (or its attached
        rate profile) and its two switches, and nothing of forwarding state,
        so the whole batch is one :meth:`~repro.core.system.EdgePlane.link_penalties_ms`
        call on the chunk's columns.  It runs after the walk, which *assigns*
        the walked flows' latencies: ``latency + penalty`` there, and
        ``(0.0 + penalty) + pair price`` for a decided flow, are the scalar
        ``price + penalty``.
        """
        infos = state["infos"]
        inverse = state["inverse"][:reached]
        # A departed pair resolves to switch -1 on both sides: never metered.
        flow_src = np.array([info.src_switch_id for info in infos], dtype=np.int64)[inverse]
        flow_dst = np.array([info.dst_switch_id for info in infos], dtype=np.int64)[inverse]
        metered = np.flatnonzero(flow_src != flow_dst)
        if not metered.size:
            return
        _, _, _, _, byte_column, duration_column = batch.columns()
        penalties = np.array(
            self._plane.link_penalties_ms(
                state["times"][metered].tolist(),
                np.frombuffer(duration_column, dtype=np.float64)[metered].tolist(),
                np.frombuffer(byte_column, dtype=np.int64)[metered].tolist(),
                flow_src[metered].tolist(),
                flow_dst[metered].tolist(),
            ),
            dtype=np.float64,
        )
        state["first_flow"][metered] += penalties
        state["steady_flow"][metered] += penalties
        self._perf.count("kernel.flows_metered", int(metered.size))

    # -- stage 4: apply each decided pair once, then fold the batch ---------------

    def _accumulate(self, state, reached: int) -> None:
        """Apply and settle the first ``reached`` flows' bulk runs, then fold them."""
        plane = self._plane
        settle_run = plane.settle_run
        infos = state["infos"]
        cls = state["cls"]
        verdicts = state["verdicts"]
        hits = state["hits"]
        hit_verdicts = state["hit_verdicts"]
        cause_of = state["cause_of"]
        ordered_intra = state["ordered_intra"]
        inverse = state["inverse"]
        counts = state["counts"]
        last_t = state["last_t"]
        if reached < state["n"]:
            # Stopped at a tick: each pair's flows before it.
            inverse = inverse[:reached]
            prefix = np.bincount(inverse, minlength=len(cls))
            last_t = state["sorted_times"][state["starts"] + np.maximum(prefix, 1) - 1].tolist()
            counts = prefix.tolist()

        departed_flows = 0
        bulk_runs = 0
        causes = {"punt": 0, "rule_may_expire": 0, "eviction_guard": 0}
        pair_first = [0.0] * len(cls)
        pair_steady = [0.0] * len(cls)
        for g, kind in enumerate(cls):
            pair_flows = counts[g]
            if not pair_flows:
                continue
            bulk_runs += kind != _RULE
            if kind == _RULE:
                if hits[g]:
                    verdict = hit_verdicts[g]
                    _, pair_first[g], pair_steady[g], _ = settle_run(
                        TABLE_HIT, verdict.target_switches, verdict.key.dst_mac, hits[g]
                    )
            elif kind == _FALLBACK:
                causes[cause_of[g]] += pair_flows
            elif kind == _DEPARTED:
                departed_flows += pair_flows
            else:
                verdict = verdicts[g]
                if not (ordered_intra and kind == _INTRA):  # else the walk applied them
                    infos[g].switch.apply_run(verdict, pair_flows, last_t[g])
                _, pair_first[g], pair_steady[g], _ = settle_run(
                    verdict.outcome, verdict.target_switches, verdict.key.dst_mac, pair_flows
                )
        plane.counters.departed_flows += departed_flows
        state["bulk_runs"] = bulk_runs
        causes["eviction_guard"] = int(np.searchsorted(state["late"], reached))
        walked = state["walked"]
        # The rest of the walked flows are segment heads: each a packet-in.
        causes["punt"] += len(walked) - sum(causes.values())
        state["fallback_causes"] = causes
        price_first = np.array(pair_first, dtype=np.float64)[inverse]
        price_steady = np.array(pair_steady, dtype=np.float64)[inverse]
        if walked:
            # A rule pair's walked flows were priced by first_packet.
            price_first[walked] = 0.0
            price_steady[walked] = 0.0
        state["first_flow"][:reached] += price_first
        state["steady_flow"][:reached] += price_steady

        # Intensity: replay every non-departed pair in first-arrival order so
        # the recent matrix's key order (which later float folds iterate)
        # matches the scalar path; the values themselves are order-free.
        matrix = plane.intensity_matrix()
        if matrix is not None:
            for g in np.argsort(state["first_index"], kind="stable").tolist():
                if cls[g] == _DEPARTED or not counts[g]:
                    continue
                info = infos[g]
                matrix.record_many(info.src_switch_id, info.dst_switch_id, counts[g])

        handled = state["cls_flow"][:reached] != _DEPARTED
        self._fold_latency(state, handled, reached)
        self._fold_timeline(state, handled, reached)

    def _fold_latency(self, state, handled, reached: int) -> None:
        recorder = self._plane.latency_recorder
        times = state["times"][:reached]
        first = state["first_flow"][:reached]
        steady = state["steady_flow"][:reached]
        pcs = state["pcs"][:reached]
        if not handled.all():
            # Masked copies only when a flow departed.
            if not handled.any():
                return
            times, first, steady, pcs = times[handled], first[handled], steady[handled], pcs[handled]
        buckets = np.floor_divide(times, recorder.bucket_seconds).astype(np.int64)
        # Interleave each flow's two record() contributions in arrival order:
        # first (count 1), then steady * (packet_count - 1) — a 0.0 identity
        # term when the flow is single-packet, exactly as the scalar early
        # return leaves the sum untouched.
        values = np.empty(2 * len(times), dtype=np.float64)
        values[0::2] = first
        values[1::2] = steady * (pcs - 1)
        starts = np.flatnonzero(np.concatenate(([True], buckets[1:] != buckets[:-1])))
        ends = np.append(starts[1:], len(buckets))
        for bucket, start, end in zip(buckets[starts].tolist(), starts.tolist(), ends.tolist()):
            recorder.record_bulk(
                bucket,
                fold_sum(recorder.bucket_sum(bucket), values[2 * start : 2 * end]),
                int(pcs[start:end].sum()),
            )

    def _fold_timeline(self, state, handled, reached: int) -> None:
        tracer = self._plane.tracer
        if not tracer.enabled or tracer.timeline is None:
            return
        if not handled.any():
            return
        timeline = tracer.timeline
        times = state["times"][:reached][handled]
        first = state["first_flow"][:reached][handled]
        buckets = np.maximum(
            np.floor_divide(times, timeline.bucket_seconds).astype(np.int64), 0
        )
        unique_buckets, bucket_counts = np.unique(buckets, return_counts=True)
        flow_counts = dict(zip(unique_buckets.tolist(), bucket_counts.tolist()))
        unique_values, value_inverse = np.unique(first, return_inverse=True)
        value_bins = np.array(
            [latency_bin(value) for value in unique_values.tolist()], dtype=np.int64
        )
        bins = value_bins[value_inverse]
        # Count per (bucket, latency-bin) pair; bins span [-30, 50] so +64
        # packs them into a clean non-negative code.
        pair_codes = buckets * 128 + (bins + 64)
        unique_pairs, pair_counts = np.unique(pair_codes, return_counts=True)
        bin_counts = {
            (code // 128, code % 128 - 64): amount
            for code, amount in zip(unique_pairs.tolist(), pair_counts.tolist())
        }
        timeline.record_flows_bulk(flow_counts, bin_counts)


def build_kernel(plane, *, perf=NULL_RECORDER) -> Optional[ColumnarReplayKernel]:
    """Build a kernel for ``plane``, or ``None`` when it cannot be accelerated."""
    from repro.core.system import EdgePlane

    if not isinstance(plane, EdgePlane):
        return None  # custom planes registered by tests keep the scalar path
    return ColumnarReplayKernel(plane, perf=perf)
