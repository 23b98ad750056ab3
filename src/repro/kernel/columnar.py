"""The columnar batch engine behind ``kernel=vectorized``.

One kernel instance wraps one control plane for one replay and is invoked by
:class:`~repro.traffic.replay.TraceReplayer` once per batch (the flows
between two periodic ticks, within one stream chunk).  The batch arrives
as a :class:`~repro.traffic.chunk.FlowChunk` view whose column buffers are
wrapped as numpy arrays without a copy, is grouped by (src host, dst host)
pair, and every pair is classified against the *current* dataplane state:

* ``LOCAL`` — no flow rule, destination in the ingress L-FIB;
* ``HIT`` — a live ``FORWARD_LOCAL``/``ENCAP_TO_SWITCH`` rule that stays
  alive through every arrival of the pair (each lookup refreshes the idle
  clock, so liveness is a chain condition over the pair's arrival gaps);
* ``INTRA`` — no rule, not local, the G-FIB names candidate peers
  (LazyCtrl only);
* ``DEPARTED`` — an endpoint no longer exists;
* everything else — ``FALLBACK``: the flows go through the plane's own
  :meth:`~repro.core.system.EdgePlane.decide` step one by one, in arrival
  order.  These (and, under a link meter, the inter-switch flows the meter
  must see) are the only flows a :class:`~repro.traffic.flow.FlowRecord` is
  built for; ``kernel.records_minted`` counts them.  ``decide`` leaves the
  latency recorder, the intensity window and the timeline alone, so these
  flows and the array-path flows meet in the one in-order fold below.

The contract is bit-identity with the scalar replayer, not approximation.
The load-bearing facts, each mirrored from the scalar code it replaces:

* controllers install rules only for the packet's own flow key on its
  ingress switch, so the single cross-pair hazard is capacity eviction:
  when a switch's resident rules plus the batch's potential new-key
  installs reach capacity, every ``HIT`` pair on that switch is demoted to
  ``FALLBACK`` (per-switch slack guard) and replays scalar in true order;
* bucket sums in :class:`~repro.simulation.metrics.LatencyRecorder` are
  sequential left folds in arrival order; the kernel replays the identical
  fold via ``record_bulk`` with the per-flow ``first`` and
  ``steady * (packet_count - 1)`` terms interleaved exactly as the scalar
  ``record`` calls would produce them (``numpy`` float64 arithmetic is
  IEEE-754 double arithmetic, the same operations in the same order);
* ``numpy.floor_divide`` on float64 matches CPython's float ``//`` bit for
  bit, so bucket indices agree with ``int(timestamp // bucket_seconds)``;
* the intensity matrix accumulates ``+= 1.0`` per flow: the final float is
  a function of the *number* of adds only, but dict insertion order feeds
  later float folds (``merge``/``pairs``), so the kernel replays all pairs
  in first-arrival order through ``record_many``;
* integer counters are order-free and applied as batch sums.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.packets import FlowKey
from repro.datastructures.flow_table import ActionType
from repro.obs.timeline import _latency_bin
from repro.perf.recorder import NULL_RECORDER
from repro.traffic.chunk import FlowChunk

# Pair classes.
_FALLBACK = 0
_LOCAL = 1
_HIT = 2
_INTRA = 3
_DEPARTED = 4

#: Host-id packing base for (src, dst) pair codes; ids are far below this.
_CODE_BASE = 1 << 31


class _PairStatic:
    """Per-(src, dst) host-pair facts that cannot change while the kernel runs.

    The kernel is only wired up for churn-free replays (no coupled engine),
    so host placement and L-FIB membership are run-static; a cheap topology
    token guards the assumption and clears the memo if it ever breaks.

    Resolved objects (ingress switch, its rules dict, timeout bounds, G-FIB)
    are pinned here so the steady-state classification of a pair costs one
    dict ``get`` plus a branch.  The G-FIB probe result is memoized per
    filter generation: ``GroupFib.version`` only moves on dissemination
    events (churn host-moves, regrouping), so between them the candidate
    set — and everything derived from it — is a constant of the pair.
    """

    __slots__ = (
        "departed",
        "src_switch_id",
        "dst_switch_id",
        "key",
        "dst_mac",
        "is_local",
        "switch",
        "table",
        "rules",
        "bounds",
        "gfib",
        "gfib_version",
        "candidates",
        "fp_targets",
        "intra_first",
    )

    def __init__(
        self,
        *,
        departed,
        src_switch_id=-1,
        dst_switch_id=-1,
        key=None,
        dst_mac=None,
        is_local=False,
        switch=None,
        table=None,
        rules=None,
        bounds=None,
        gfib=None,
    ):
        self.departed = departed
        self.src_switch_id = src_switch_id
        self.dst_switch_id = dst_switch_id
        self.key = key
        self.dst_mac = dst_mac
        self.is_local = is_local
        self.switch = switch
        self.table = table
        self.rules = rules
        self.bounds = bounds
        self.gfib = gfib
        self.gfib_version = -1
        self.candidates = ()
        self.fp_targets = ()
        self.intra_first = 0.0


class ColumnarReplayKernel:
    """Vectorized batch handler for one :class:`~repro.core.system.EdgePlane`."""

    def __init__(self, plane, *, perf=NULL_RECORDER) -> None:
        self._plane = plane
        self._switches = {switch.switch_id: switch for switch in plane.switches()}
        self._perf = perf
        self._pair_static: Dict[int, _PairStatic] = {}
        self._bounds_cache: Dict[int, Optional[Tuple[float, float]]] = {}
        self._topology_token: Optional[Tuple[int, int]] = None
        self._min_coverage = 1.0

    # -- helpers ---------------------------------------------------------------

    def _bounds(self, table) -> Optional[Tuple[float, float]]:
        cached = self._bounds_cache.get(id(table))
        if cached is None and id(table) not in self._bounds_cache:
            cached = table.policy.timeout_bounds()
            self._bounds_cache[id(table)] = cached
        return cached

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
            table = switch.flow_table
            info = _PairStatic(
                departed=False,
                src_switch_id=src_host.switch_id,
                dst_switch_id=dst_host.switch_id,
                key=FlowKey(src_mac=src_host.mac, dst_mac=dst_host.mac, tenant_id=src_host.tenant_id),
                dst_mac=dst_host.mac,
                is_local=switch.lfib.lookup(dst_host.mac) is not None,
                switch=switch,
                table=table,
                rules=table._rules,
                bounds=self._bounds(table),
                gfib=switch.gfib,
            )
        self._pair_static[code] = info
        return info

    def _scalar_batch(self, batch: FlowChunk) -> None:
        handle = self._plane.handle_flow_arrival
        for flow in batch:
            handle(flow, flow.start_time)
        perf = self._perf
        if perf.enabled:
            perf.count("kernel.batches", 1)
            perf.count("kernel.batches_bypassed", 1)
            perf.count("kernel.flows_fallback", len(batch))
            self._count_minted(batch, len(batch))
            self._note_coverage(0, len(batch))

    def _count_minted(self, batch: FlowChunk, records: int) -> None:
        """Account ``records`` flows of ``batch`` read as records.

        Only a column-backed chunk builds them; a chunk adapted from existing
        records hands those back and mints nothing.
        """
        if records and batch.mints_records:
            self._perf.count("kernel.records_minted", records)

    def _note_coverage(self, vectorized: int, total: int) -> None:
        if total <= 0:
            return
        coverage = vectorized / total
        if coverage < self._min_coverage:
            self._min_coverage = coverage
        self._perf.gauge("kernel.min_batch_coverage", self._min_coverage)

    # -- the batch entry point -------------------------------------------------

    def __call__(self, batch) -> None:
        n = len(batch)
        if n == 0:
            return
        # The replayer hands over chunk views; a plain record list (a direct
        # caller) is transposed here, once.
        batch = FlowChunk.from_records(batch)
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
            self._execute(batch, state)
        with perf.timeit("kernel_accumulate"):
            self._accumulate(state)

        if perf.enabled:
            fallback_flows = int(state["fallback_flow_count"])
            perf.count("kernel.batches", 1)
            perf.count("kernel.flows_vectorized", n - fallback_flows)
            perf.count("kernel.flows_fallback", fallback_flows)
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

        plane = self._plane
        model = plane.latency_model
        local_ms = model.local_delivery_ms()
        hit_ms = model.flow_table_hit_ms()
        intra_steady_ms = model.intra_group_ms()
        switches = self._switches

        infos: List[_PairStatic] = []
        cls: List[int] = []
        pair_first = [0.0] * p
        pair_steady = [0.0] * p
        hit_records: List[tuple] = []
        intra_records: List[tuple] = []
        local_pairs: List[int] = []
        hit_pairs_by_switch: Dict[int, List[int]] = {}
        new_keys_by_switch: Dict[int, int] = {}
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
            rule = info.rules.get(info.key)
            if rule is not None:
                alive = False
                bounds = info.bounds
                if bounds is not None:
                    kind = rule.action.kind
                    if kind is ActionType.FORWARD_LOCAL or kind is ActionType.ENCAP_TO_SWITCH:
                        idle, hard = bounds
                        alive = (
                            first_t[g] - rule.last_matched_at <= idle
                            and max_gap[g] <= idle
                            and last_t[g] - rule.installed_at <= hard
                        )
                if alive:
                    cls_append(_HIT)
                    pair_first[g] = hit_ms
                    pair_steady[g] = hit_ms
                    hit_records.append((g, rule, info.table))
                    hit_pairs_by_switch.setdefault(info.src_switch_id, []).append(g)
                else:
                    cls_append(_FALLBACK)
            elif info.is_local:
                cls_append(_LOCAL)
                pair_first[g] = local_ms
                pair_steady[g] = local_ms
                local_pairs.append(g)
            else:
                gfib = info.gfib
                if gfib is not None and info.gfib_version != gfib.version:
                    # The pure membership test: what every in-batch query
                    # for this MAC will answer (filters only change at
                    # ticks), touching neither the query cache nor its
                    # counters, whose aggregate evolution the execution
                    # stage replays.  The result is a constant of the pair
                    # until the next dissemination bumps the filter
                    # generation.
                    candidates = gfib.matching_peers(info.dst_mac)
                    info.candidates = candidates
                    info.gfib_version = gfib.version
                    if candidates:
                        info.intra_first = model.intra_group_ms(len(candidates))
                        info.fp_targets = tuple(
                            target for target in candidates
                            if switches[target].lfib.lookup(info.dst_mac) is None
                        )
                if info.candidates:
                    cls_append(_INTRA)
                    pair_first[g] = info.intra_first
                    pair_steady[g] = intra_steady_ms
                    intra_records.append((g, info))
                else:
                    # No group (the baseline) or no candidate peer: packet-in.
                    cls_append(_FALLBACK)
                    new_keys_by_switch[info.src_switch_id] = (
                        new_keys_by_switch.get(info.src_switch_id, 0) + 1
                    )

        # Per-switch slack guard: if this batch's potential new-key installs
        # can trigger eviction on a switch, every HIT pair there replays
        # scalar so eviction order and rule refreshes stay in true order.
        for switch_id, pair_list in hit_pairs_by_switch.items():
            pending = new_keys_by_switch.get(switch_id, 0)
            if not pending:
                continue
            table = switches[switch_id].flow_table
            if len(table._rules) + pending >= table.capacity:
                for g in pair_list:
                    cls[g] = _FALLBACK

        cls_arr = np.array(cls, dtype=np.int8)
        cls_flow = cls_arr[inverse]
        fallback_flow_idx = np.flatnonzero(cls_flow == _FALLBACK)
        first_flow = np.array(pair_first, dtype=np.float64)[inverse]
        steady_flow = np.array(pair_steady, dtype=np.float64)[inverse]
        handled = cls_flow != _DEPARTED

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
            "fallback_flow_idx": fallback_flow_idx,
            "fallback_flow_count": int(fallback_flow_idx.size),
            "first_flow": first_flow,
            "steady_flow": steady_flow,
            "handled": handled,
            "hit_records": hit_records,
            "intra_records": intra_records,
            "local_pairs": local_pairs,
            "fallback_pair_count": cls.count(_FALLBACK),
        }

    # -- stage 2: replay fallback flows (and meter, in true order) -------------

    def _execute(self, batch, state) -> None:
        if self._plane.link_meter is not None:
            self._walk_with_meter(batch, state)
        elif not self._bulk_gfib_accounting(state):
            # A G-FIB query cache could overflow mid-batch: replay every
            # intra-group query (and the fallbacks) in true arrival order
            # so the wholesale cache clear lands exactly where the scalar
            # replayer would put it.
            cls_flow = state["cls_flow"]
            indices = np.flatnonzero((cls_flow == _FALLBACK) | (cls_flow == _INTRA))
            self._walk_plain(batch, state, indices.tolist())
        else:
            self._walk_plain(batch, state, state["fallback_flow_idx"].tolist())

    def _bulk_gfib_accounting(self, state) -> bool:
        """Apply the batch's intra-group G-FIB query effects wholesale.

        Absent a cache clear, the aggregate query counters are order-free:
        every distinct *new* destination MAC costs exactly one cache miss no
        matter which arrival takes it, and every other query is a hit — so
        the batch total is a function of the query multiset, not its order.
        The new entries are inserted up front; fallback flows that later
        query the same MAC live simply hit them, which keeps the combined
        miss count identical to the scalar interleaving.

        Returns ``False`` — having changed nothing — when any touched cache
        could reach its clear threshold this batch (counting every fallback
        pair as a potential extra insertion); the caller then replays all
        queries in true arrival order instead.
        """
        intra_records = state["intra_records"]
        if not intra_records:
            return True
        counts = state["counts"]
        fallback_pairs = state["fallback_pair_count"]
        per_gfib: Dict[int, tuple] = {}
        for g, info in intra_records:
            entry = per_gfib.get(id(info.gfib))
            if entry is None:
                entry = (info.gfib, {})
                per_gfib[id(info.gfib)] = entry
            queries = entry[1]
            previous = queries.get(info.dst_mac)
            if previous is None:
                queries[info.dst_mac] = [counts[g], info.candidates]
            else:
                previous[0] += counts[g]
        plans = []
        for gfib, queries in per_gfib.values():
            cache = gfib._query_cache
            total = 0
            new_entries = []
            for mac, (pair_flows, candidates) in queries.items():
                total += pair_flows
                if mac not in cache:
                    new_entries.append((mac, candidates))
            if len(cache) + len(new_entries) + fallback_pairs >= gfib.QUERY_CACHE_LIMIT:
                return False
            plans.append((gfib, total, new_entries))
        for gfib, total, new_entries in plans:
            cache = gfib._query_cache
            for mac, candidates in new_entries:
                cache[mac] = candidates
            gfib.query_count += total
            gfib.query_cache_hits += total - len(new_entries)
        return True

    def _walk_plain(self, batch, state, indices: List[int]) -> None:
        """Replay fallback flows — and intra-group G-FIB queries — in order.

        On the ordered path (cache-clear hazard) intra-group flows stay on
        the array path for everything except their per-arrival
        ``GroupFib.query``, which is replayed against the real G-FIB so the
        query cache (and its hit counters) evolves in exactly the scalar
        arrival order, interleaved with the fallback flows' own live queries.
        """
        if not indices:
            return
        decide = self._plane.decide
        cls_flow = state["cls_flow"].tolist()
        inverse = state["inverse"].tolist()
        infos = state["infos"]
        first_flow = state["first_flow"]
        steady_flow = state["steady_flow"]
        handled = state["handled"]
        replayed = 0
        for i in indices:
            if cls_flow[i] == _INTRA:
                info = infos[inverse[i]]
                info.gfib.query(info.dst_mac)
                continue
            flow = batch[i]
            replayed += 1
            result = decide(flow, flow.start_time)
            if result is None:
                handled[i] = False
            else:
                first_flow[i] = result.first_packet_latency_ms
                steady_flow[i] = result.steady_packet_latency_ms
        self._count_minted(batch, replayed)

    def _walk_with_meter(self, batch, state) -> None:
        """Replay the whole batch in arrival order when links are metered.

        The meter's window accounting and congestion-crossing detection are
        order-dependent, so vectorized flows observe the meter (and collect
        their queueing penalty) interleaved with the scalar fallbacks
        exactly as the scalar replayer would.  The meter reads whole records
        (rate profiles), so this walk iterates — and mints — the batch.
        """
        decide = self._plane.decide
        congestion_penalty_ms = self._plane.congestion_penalty_ms
        cls_flow = state["cls_flow"].tolist()
        inverse = state["inverse"].tolist()
        infos = state["infos"]
        first_flow = state["first_flow"]
        steady_flow = state["steady_flow"]
        handled = state["handled"]
        for i, flow in enumerate(batch):
            flow_class = cls_flow[i]
            if flow_class == _DEPARTED:
                continue
            if flow_class == _FALLBACK:
                result = decide(flow, flow.start_time)
                if result is None:
                    handled[i] = False
                else:
                    first_flow[i] = result.first_packet_latency_ms
                    steady_flow[i] = result.steady_packet_latency_ms
                continue
            info = infos[inverse[i]]
            if flow_class == _INTRA:
                # Scalar order: the G-FIB query happens inside process_packet,
                # before the congestion penalty is computed.
                info.gfib.query(info.dst_mac)
            penalty = congestion_penalty_ms(
                flow, info.src_switch_id, info.dst_switch_id, flow.start_time
            )
            if penalty > 0.0:
                first_flow[i] = float(first_flow[i]) + penalty
                steady_flow[i] = float(steady_flow[i]) + penalty
        self._count_minted(batch, len(batch))

    # -- stage 3: exact write-back ---------------------------------------------

    def _accumulate(self, state) -> None:
        plane = self._plane
        counters = plane.counters
        switches = self._switches
        infos = state["infos"]
        cls = state["cls"]
        counts = state["counts"]
        last_t = state["last_t"]

        departed_flows = 0
        local_flows = 0
        hit_flows = 0
        intra_flows = 0
        duplicate_deliveries = 0
        false_positive_flows = 0
        misses_by_switch: Dict[int, int] = {}
        ingress_by_switch: Dict[int, int] = {}

        for g in state["local_pairs"]:
            if cls[g] != _LOCAL:
                continue
            info = infos[g]
            pair_flows = counts[g]
            local_flows += pair_flows
            misses_by_switch[info.src_switch_id] = (
                misses_by_switch.get(info.src_switch_id, 0) + pair_flows
            )
            ingress_by_switch[info.src_switch_id] = (
                ingress_by_switch.get(info.src_switch_id, 0) + pair_flows
            )

        for g, rule, table in state["hit_records"]:
            if cls[g] != _HIT:
                continue  # demoted by the slack guard; replayed scalar
            info = infos[g]
            pair_flows = counts[g]
            hit_flows += pair_flows
            rule.last_matched_at = last_t[g]
            rule.packet_count += pair_flows
            rule.byte_count += pair_flows * 1500
            table.stats.hits += pair_flows
            ingress_by_switch[info.src_switch_id] = (
                ingress_by_switch.get(info.src_switch_id, 0) + pair_flows
            )

        for g, info in state["intra_records"]:
            pair_flows = counts[g]
            intra_flows += pair_flows
            duplicates = len(info.candidates) - 1
            duplicate_deliveries += duplicates * pair_flows
            if info.fp_targets:
                false_positive_flows += pair_flows
            info.switch.duplicate_deliveries += duplicates * pair_flows
            misses_by_switch[info.src_switch_id] = (
                misses_by_switch.get(info.src_switch_id, 0) + pair_flows
            )
            ingress_by_switch[info.src_switch_id] = (
                ingress_by_switch.get(info.src_switch_id, 0) + pair_flows
            )
            for target in info.candidates:
                switches[target].packets_processed += pair_flows
            for target in info.fp_targets:
                switches[target].false_positive_drops += pair_flows

        for g, flow_class in enumerate(cls):
            if flow_class == _DEPARTED:
                departed_flows += counts[g]

        counters.departed_flows += departed_flows
        counters.flows_handled += local_flows + hit_flows + intra_flows
        counters.local_flows += local_flows
        counters.duplicate_deliveries += duplicate_deliveries
        counters.intra_group_flows += intra_flows
        counters.false_positive_drops += false_positive_flows

        for switch_id, amount in ingress_by_switch.items():
            switches[switch_id].packets_processed += amount
        for switch_id, amount in misses_by_switch.items():
            switches[switch_id].flow_table.stats.misses += amount

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
            [_latency_bin(value) for value in unique_values.tolist()], dtype=np.int64
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
    if plane.latency_recorder._all is not None:
        return None  # pragma: no cover - replays never keep raw samples
    return ColumnarReplayKernel(plane, perf=perf)
