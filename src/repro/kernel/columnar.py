"""The columnar batch engine behind ``kernel=vectorized``.

One kernel instance wraps one control plane for one replay and is invoked by
:class:`~repro.traffic.replay.TraceReplayer` once per batch (the flows
between two periodic ticks, within one stream chunk).  The batch arrives
as a :class:`~repro.traffic.chunk.FlowChunk` view whose column buffers are
wrapped as numpy arrays without a copy, and goes through five steps:

* **classify** — the flows are grouped by (src host, dst host) pair and each
  pair's arrival structure (first, largest gap, last) is put to its ingress
  switch: :meth:`~repro.dataplane.edge_switch.EdgeSwitch.classify_run`, the
  question ``forward_key`` asks for a run of one.  A table hit, a local
  delivery or an intra-group forward is a *decided* pair; a punt, or a run
  the switch cannot vouch for, is a ``FALLBACK`` pair; a pair with an
  endpoint that no longer exists is ``DEPARTED``.
* **guard** — two things one pair can do to another within a batch, asked of
  their owners: a fallback's rule install can evict (so where a table's
  occupancy plus the batch's new keys reaches its capacity, that switch's
  hits fall back too), and a G-FIB memo can fill up and clear (so where a
  G-FIB's :meth:`~repro.datastructures.fib.GroupFib.cache_room` could run
  out, intra-group runs are applied flow by flow on the ordered walk).
* **walk** — what forwarding makes order-dependent runs in arrival order:
  fallback flows through :meth:`~repro.core.system.EdgePlane.first_packet`,
  the packet-in step the plane's own ``flow_arrival`` takes, on the pair's
  memoized flow key and the time column.  No
  :class:`~repro.traffic.flow.FlowRecord` is built — nor for a batch bypassed
  whole, which takes the scalar replayer's own column walk
  (:func:`~repro.traffic.replay.replay_batch`).
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
  calls ``forward_key`` and ``first_packet`` make with ``n = 1`` — and the
  whole batch, fallbacks included (``first_packet`` records nothing), is folded
  into the latency recorder, the intensity window and the timeline.

The kernel owns no forwarding rule: what a pair does and what that changes
is the switch's and the plane's.  What it owns is the batch arithmetic, whose
contract is bit-identity with the scalar replayer:

* bucket sums in :class:`~repro.simulation.metrics.LatencyRecorder` are
  sequential left folds in arrival order; the kernel replays the identical
  fold via ``record_bulk`` with the per-flow ``first`` and
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

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.packets import FlowKey
from repro.dataplane.decisions import INTRA_GROUP, PUNT, TABLE_HIT, RunVerdict
from repro.obs.timeline import latency_bin
from repro.perf.recorder import NULL_RECORDER
from repro.traffic.chunk import FlowChunk
from repro.traffic.replay import replay_batch

# Pair classes.
_FALLBACK = 0
_DECIDED = 1
_INTRA = 2  # decided too; the one kind the ordered walk may have to apply
_DEPARTED = 3

#: Host-id packing base for (src, dst) pair codes; ids are far below this.
_CODE_BASE = 1 << 31


class _PairStatic:
    """Host resolution of one (src, dst) pair: flow key and the switches involved.

    Host placement holds between churn events, and churn events fire only
    between batches (the replayer cuts a batch at every event), so placement
    is batch-static; a cheap topology token clears the memo when a batch
    sees a migration, arrival or departure.
    """

    __slots__ = ("departed", "src_switch_id", "dst_switch_id", "key", "switch")

    def __init__(self, *, departed, src_switch_id=-1, dst_switch_id=-1, key=None, switch=None):
        self.departed = departed
        self.src_switch_id = src_switch_id
        self.dst_switch_id = dst_switch_id
        self.key = key
        self.switch = switch


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
            info = _PairStatic(
                departed=False,
                src_switch_id=src_host.switch_id,
                dst_switch_id=dst_host.switch_id,
                key=FlowKey(src_mac=src_host.mac, dst_mac=dst_host.mac, tenant_id=src_host.tenant_id),
                switch=self._switches[src_host.switch_id],
            )
        self._pair_static[code] = info
        return info

    def _scalar_batch(self, batch: FlowChunk) -> None:
        replay_batch(self._plane, batch)
        perf = self._perf
        if perf.enabled:
            perf.count("kernel.batches", 1)
            perf.count("kernel.batches_bypassed", 1)
            perf.count("kernel.flows_fallback", len(batch))
            perf.count("kernel.fallback_bypass", len(batch))
            self._note_coverage(0, len(batch))

    def _note_coverage(self, vectorized: int, total: int) -> None:
        if total <= 0:
            return
        coverage = vectorized / total
        if coverage < self._min_coverage:
            self._min_coverage = coverage
        self._perf.gauge("kernel.min_batch_coverage", self._min_coverage)

    # -- the batch entry point -------------------------------------------------

    def __call__(self, batch: FlowChunk) -> None:
        n = len(batch)
        if n == 0:
            return
        plane = self._plane
        tracer = plane.tracer

        # Whole-batch bypass guards: situations the columnar path does not
        # model (rare in practice, always safe to replay scalar).
        if tracer.has_listeners:
            self._scalar_batch(batch)
            return
        for switch in self._switches.values():
            if switch.failed:
                self._scalar_batch(batch)
                return
        token = self._current_topology_token()
        if token != self._topology_token:
            if self._topology_token is not None:
                self._pair_static.clear()
            self._topology_token = token

        perf = self._perf
        with perf.timeit("kernel_classify"):
            state = self._classify(batch, n)
        if state is None:
            self._scalar_batch(batch)
            return
        with perf.timeit("kernel_fallback"):
            self._walk(batch, state)
        if plane.link_meter is not None:
            with perf.timeit("kernel_meter"):
                self._meter(batch, state)
        with perf.timeit("kernel_accumulate"):
            self._accumulate(state)

        if perf.enabled:
            fallback_flows = int(state["fallback_flow_count"])
            perf.count("kernel.batches", 1)
            perf.count("kernel.flows_vectorized", n - fallback_flows)
            perf.count("kernel.flows_fallback", fallback_flows)
            for cause, flows in state["fallback_causes"].items():
                perf.count(f"kernel.fallback_{cause}", flows)
            self._note_coverage(n - fallback_flows, n)

    # -- stage 1: classify ------------------------------------------------------

    def _classify(self, batch: FlowChunk, n: int):
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
        # by pair, each group staying in arrival order).
        order = np.argsort(inverse, kind="stable")
        sorted_inv = inverse[order]
        sorted_times = times[order]
        boundaries = np.concatenate(([0], np.cumsum(counts)[:-1]))
        first_t = sorted_times[boundaries].tolist()
        last_t = sorted_times[boundaries + counts - 1].tolist()
        if n > 1:
            diffs = sorted_times[1:] - sorted_times[:-1]
            same = sorted_inv[1:] == sorted_inv[:-1]
            padded = np.concatenate((np.where(same, diffs, 0.0), (0.0,)))
        else:
            padded = np.zeros(1, dtype=np.float64)
        max_gap = np.maximum.reduceat(padded, boundaries).tolist()
        counts_list = counts.tolist()

        switches = self._switches
        infos: List[_PairStatic] = []
        cls: List[int] = []
        verdicts: List[Optional[RunVerdict]] = [None] * p
        hit_pairs_by_switch: Dict[int, List[int]] = {}
        intra_pairs_by_switch: Dict[int, int] = {}
        new_keys_by_switch: Dict[int, int] = {}
        # Why flows leave the array path, in flows: a packet-in for a key with
        # no rule, a resident rule the run cannot vouch for, the slack guard.
        causes = {"punt": 0, "rule_may_expire": 0, "eviction_guard": 0}
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
            if verdict is None:
                cls_append(_FALLBACK)
                causes["rule_may_expire"] += counts_list[g]
                continue
            outcome = verdict.outcome
            if outcome is PUNT:
                # A packet-in: the controller's answer is order-dependent,
                # and may install a rule for a key the table does not hold.
                cls_append(_FALLBACK)
                causes["punt"] += counts_list[g]
                new_keys_by_switch[info.src_switch_id] = (
                    new_keys_by_switch.get(info.src_switch_id, 0) + 1
                )
                continue
            verdicts[g] = verdict
            if outcome is INTRA_GROUP:
                cls_append(_INTRA)
                intra_pairs_by_switch[info.src_switch_id] = (
                    intra_pairs_by_switch.get(info.src_switch_id, 0) + 1
                )
            else:
                cls_append(_DECIDED)
                if outcome is TABLE_HIT:
                    hit_pairs_by_switch.setdefault(info.src_switch_id, []).append(g)

        # Per-switch slack guard: if this batch's potential new-key installs
        # can trigger eviction on a switch, every hit pair there replays
        # scalar so eviction order and rule refreshes stay in true order.
        for switch_id, pair_list in hit_pairs_by_switch.items():
            pending = new_keys_by_switch.get(switch_id, 0)
            if not pending:
                continue
            table = switches[switch_id].flow_table
            if len(table) + pending >= table.capacity:
                for g in pair_list:
                    cls[g] = _FALLBACK
                    verdicts[g] = None
                    causes["eviction_guard"] += counts_list[g]

        # G-FIB memo guard.  Absent a wholesale clear, a run's query
        # accounting is order-free: every distinct new MAC costs one memo
        # miss no matter which arrival takes it.  Where a memo could fill up
        # this batch (counting every fallback pair as a potential extra
        # entry), the clear must land where the scalar replayer puts it.
        fallback_pairs = cls.count(_FALLBACK)
        ordered_intra = any(
            pairs + fallback_pairs >= switches[switch_id].gfib.cache_room()
            for switch_id, pairs in intra_pairs_by_switch.items()
        )

        cls_flow = np.array(cls, dtype=np.int8)[inverse]
        fallback_flow_idx = np.flatnonzero(cls_flow == _FALLBACK)

        return {
            "n": n,
            "times": times,
            "pcs": pcs,
            "inverse": inverse,
            "first_index": first_index,
            "counts": counts_list,
            "last_t": last_t,
            "infos": infos,
            "cls": cls,
            "cls_flow": cls_flow,
            "verdicts": verdicts,
            "ordered_intra": ordered_intra,
            "fallback_flow_idx": fallback_flow_idx,
            "fallback_flow_count": int(fallback_flow_idx.size),
            "fallback_causes": causes,
            # Per flow: a fallback's latencies from the walk, plus the meter
            # pass's congestion penalty.  Pair prices are added at apply time.
            "first_flow": np.zeros(n, dtype=np.float64),
            "steady_flow": np.zeros(n, dtype=np.float64),
            "handled": cls_flow != _DEPARTED,
        }

    # -- stage 2: what is order-dependent, in true arrival order ------------------

    def _walk(self, batch, state) -> None:
        """Replay, in arrival order, the flows whose handling depends on it.

        Fallback flows, on their pair's memoized key and the time column;
        and, when a G-FIB memo could clear mid-batch, intra-group flows,
        applied one at a time so the clear interleaves with the fallbacks'
        own live queries as it would scalar.  No record is built.
        """
        ordered_intra = state["ordered_intra"]
        cls_flow = state["cls_flow"]
        if ordered_intra:
            indices = np.flatnonzero((cls_flow == _FALLBACK) | (cls_flow == _INTRA))
        else:
            indices = state["fallback_flow_idx"]
        if not indices.size:
            return
        first_packet = self._plane.first_packet
        cls_flow = cls_flow.tolist()
        inverse = state["inverse"].tolist()
        infos = state["infos"]
        verdicts = state["verdicts"]
        times = batch.start_times  # a buffer of doubles: indexing reads a float
        first_flow = state["first_flow"]
        steady_flow = state["steady_flow"]
        for i in indices.tolist():
            g = inverse[i]
            info = infos[g]
            now = times[i]
            if cls_flow[i] == _FALLBACK:
                _, first_flow[i], steady_flow[i], _, _, _ = first_packet(
                    info.key, info.src_switch_id, info.dst_switch_id, now
                )
            else:
                info.switch.apply_run(verdicts[g], 1, now)

    # -- stage 3: what the uplinks add, in one pass ----------------------------------

    def _meter(self, batch: FlowChunk, state) -> None:
        """Charge the batch's inter-switch flows to their uplinks, in arrival order.

        The meter reads a flow's start, duration and bytes (or its attached
        rate profile) and its two switches, and nothing of forwarding state,
        so the whole batch is one :meth:`~repro.core.system.EdgePlane.link_penalties_ms`
        call on the chunk's columns.  It runs after the walk, which *assigns*
        the fallback flows' latencies: ``latency + penalty`` there, and
        ``(0.0 + penalty) + pair price`` for a decided flow, are the scalar
        ``price + penalty``.
        """
        infos = state["infos"]
        inverse = state["inverse"]
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

    def _accumulate(self, state) -> None:
        plane = self._plane
        settle_run = plane.settle_run
        infos = state["infos"]
        cls = state["cls"]
        counts = state["counts"]
        last_t = state["last_t"]
        ordered_intra = state["ordered_intra"]

        departed_flows = 0
        pair_first = [0.0] * len(cls)
        pair_steady = [0.0] * len(cls)
        for g, verdict in enumerate(state["verdicts"]):
            if verdict is None:
                if cls[g] == _DEPARTED:
                    departed_flows += counts[g]
                continue
            pair_flows = counts[g]
            if not (ordered_intra and cls[g] == _INTRA):  # else the walk applied them
                infos[g].switch.apply_run(verdict, pair_flows, last_t[g])
            _, pair_first[g], pair_steady[g], _ = settle_run(
                verdict.outcome, verdict.target_switches, verdict.key.dst_mac, pair_flows
            )
        plane.counters.departed_flows += departed_flows
        inverse = state["inverse"]
        state["first_flow"] += np.array(pair_first, dtype=np.float64)[inverse]
        state["steady_flow"] += np.array(pair_steady, dtype=np.float64)[inverse]

        # Intensity: replay every non-departed pair in first-arrival order so
        # the recent matrix's key order (which later float folds iterate)
        # matches the scalar path; the values themselves are order-free.
        matrix = plane.intensity_matrix()
        if matrix is not None:
            for g in np.argsort(state["first_index"], kind="stable").tolist():
                if cls[g] == _DEPARTED:
                    continue
                info = infos[g]
                matrix.record_many(info.src_switch_id, info.dst_switch_id, counts[g])

        self._fold_latency(state)
        self._fold_timeline(state)

    def _fold_latency(self, state) -> None:
        recorder = self._plane.latency_recorder
        handled = state["handled"]
        if not handled.any():
            return
        times = state["times"][handled]
        first = state["first_flow"][handled]
        steady = state["steady_flow"][handled]
        pcs = state["pcs"][handled]
        buckets = np.floor_divide(times, recorder.bucket_seconds).astype(np.int64)
        # Interleave each flow's two record() contributions in arrival order:
        # first (count 1), then steady * (packet_count - 1) — a 0.0 identity
        # term when the flow is single-packet, exactly as the scalar early
        # return leaves the sum untouched.
        values = np.empty(2 * len(times), dtype=np.float64)
        values[0::2] = first
        values[1::2] = steady * (pcs - 1)
        starts = np.flatnonzero(np.concatenate(([True], buckets[1:] != buckets[:-1])))
        ends = np.concatenate((starts[1:], [len(buckets)]))
        bucket_list = buckets[starts].tolist()
        for segment, start in enumerate(starts.tolist()):
            end = int(ends[segment])
            recorder.record_bulk(
                bucket_list[segment],
                values[2 * start : 2 * end].tolist(),
                int(pcs[start:end].sum()),
            )

    def _fold_timeline(self, state) -> None:
        tracer = self._plane.tracer
        if not tracer.enabled or tracer.timeline is None:
            return
        handled = state["handled"]
        if not handled.any():
            return
        timeline = tracer.timeline
        times = state["times"][handled]
        first = state["first_flow"][handled]
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
