"""Serializable performance snapshots and their human-readable rendering.

A :class:`PerfSnapshot` is what one instrumented replay leaves behind: the
headline throughput (flows/sec over host wall-clock), the counter registry,
and a per-stage timing breakdown with inclusive and exclusive seconds.  It
rides on :class:`~repro.core.results.RunResult` and survives the same JSON
round-trip as every other result dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.common.serialize import dataclass_from_dict, dataclass_to_dict


@dataclass(frozen=True, slots=True)
class StageStats:
    """Timing of one named stage over a whole replay.

    ``total_seconds`` is inclusive wall time; ``exclusive_seconds`` subtracts
    the time spent inside stages nested within this one.
    """

    name: str
    calls: int
    total_seconds: float
    exclusive_seconds: float


@dataclass(frozen=True, slots=True)
class PerfSnapshot:
    """Everything one instrumented replay measured."""

    wall_seconds: float
    flows_replayed: int
    flows_per_second: float
    counters: Dict[str, int] = field(default_factory=dict)
    stages: Tuple[StageStats, ...] = ()
    gauges: Dict[str, float] = field(default_factory=dict)

    def stage(self, name: str) -> StageStats:
        """Look a stage up by name (raises ``KeyError`` when absent)."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}; have: {[s.name for s in self.stages]}")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation of this snapshot."""
        return dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PerfSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output.

        Hand-written or legacy payloads sometimes carry ``"counters": null``
        or ``"gauges": null`` where this writer omits the key; both mean "no
        registry collected" and load as the empty dict.  An explicit
        ``{"g": 0.0}`` keeps its recorded zero — absence and zero are
        different facts about a run and must round-trip as such.
        """
        cleaned = {
            key: value
            for key, value in data.items()
            if value is not None or key not in ("counters", "gauges")
        }
        return dataclass_from_dict(cls, cleaned)


#: Why flows left the array path: the ``kernel.fallback_<cause>`` counters,
#: which sum to ``kernel.flows_fallback``, and how the profile words them.
KERNEL_FALLBACK_CAUSES = {
    "punt": "no-rule packet-ins",
    "rule_may_expire": "resident rule may expire",
    "eviction_guard": "eviction-guard demotions",
    "bypass": "in bypassed batches",
}


def format_kernel_breakdown(snapshot: PerfSnapshot) -> str:
    """Render the vectorized-kernel section of a profile, if the kernel ran.

    Shows what a bench run cannot: how much of the replay actually stayed on
    the array path (overall and for the worst single batch) and where the
    kernel's own time went, so a fallback regression — a scenario drifting
    into scalar territory — is visible from ``repro profile`` alone.
    Returns the empty string for runs that never engaged the kernel.
    """
    counters = snapshot.counters
    vectorized = counters.get("kernel.flows_vectorized")
    if vectorized is None:
        return ""
    fallback = counters.get("kernel.flows_fallback", 0)
    total = vectorized + fallback
    coverage = vectorized / total if total else 0.0
    lines = [
        "kernel:",
        f"  coverage: {coverage:.1%} ({vectorized:,} of {total:,} flows on the array path)",
    ]
    batches = counters.get("kernel.batches", 0)
    bypassed = counters.get("kernel.batches_bypassed", 0)
    lines.append(f"  batches: {batches:,} ({bypassed:,} bypassed to the scalar path whole)")
    lines.append(
        f"  units of work: {counters.get('kernel.runs', 0):,} runs"
        f" ({counters.get('kernel.segments', 0):,} of them rule segments)"
    )
    lines.append(
        f"  ticks walked: {counters.get('kernel.ticks_walked', 0):,}"
        f" · batches stopped at a regrouping tick: {counters.get('kernel.batch_stops', 0):,}"
        f" · batches walking intra-group flows: {counters.get('kernel.ordered_intra', 0):,}"
    )
    floor = snapshot.gauges.get("kernel.min_batch_coverage")
    if floor is not None:
        lines.append(f"  worst single-batch coverage: {floor:.1%}")
    causes = (
        f"{counters.get(f'kernel.fallback_{cause}', 0):,} {label}"
        for cause, label in KERNEL_FALLBACK_CAUSES.items()
    )
    lines.append(f"  fallback flows: {fallback:,} = " + " + ".join(causes))
    for name in ("kernel_classify", "kernel_fallback", "kernel_meter", "kernel_accumulate"):
        try:
            stage = snapshot.stage(name)
        except KeyError:
            continue
        # The walk is timed between the ticks it fires, the rest per batch.
        unit = "stretches" if name == "kernel_fallback" else "batches"
        line = f"  {name.removeprefix('kernel_')}: {stage.total_seconds:.3f}s over {stage.calls:,} {unit}"
        if name == "kernel_meter":
            metered = counters.get("kernel.flows_metered", 0)
            line += f" ({metered:,} inter-switch flows charged to their uplinks)"
        lines.append(line)
    return "\n".join(lines)


def format_group_state_breakdown(snapshot: PerfSnapshot) -> str:
    """Render what keeping group state current cost; empty for a plane without G-FIBs.

    ``regrouping`` split into deciding and applying, the live dissemination
    inside ``engine``, and G-FIB entries installed per Bloom summary built.
    """
    counters = snapshot.counters
    if "edge.gfib_peer_installs" not in counters:
        return ""
    stages = {stage.name: stage for stage in snapshot.stages}
    lines = ["group state:"] + [
        f"  {name}: {stages[name].total_seconds:.3f}s over {stages[name].calls:,} calls"
        for name in ("regroup_decide", "regroup_apply", "live_dissemination")
        if name in stages
    ]
    installs, summaries = counters["edge.gfib_peer_installs"], counters.get("edge.gfib_summaries_built", 0)
    lines.append(f"  peer installs: {installs:,} from {summaries:,} summaries")
    return "\n".join(lines)


def format_stage_breakdown(snapshot: PerfSnapshot, *, label: str = "") -> str:
    """Render one snapshot as the per-stage table ``repro profile`` prints."""
    from repro.common.formatting import format_table

    wall = snapshot.wall_seconds
    rows: List[List[object]] = []
    for stage in snapshot.stages:
        share = (stage.total_seconds / wall * 100.0) if wall > 0 else 0.0
        rows.append(
            [
                stage.name,
                stage.calls,
                f"{stage.total_seconds:.3f}",
                f"{stage.exclusive_seconds:.3f}",
                f"{share:.1f}%",
            ]
        )
    title = f"Stage breakdown — {label}" if label else "Stage breakdown"
    table = format_table(
        ["Stage", "Calls", "Total (s)", "Exclusive (s)", "% of wall"], rows, title=title
    )
    headline = (
        f"wall {snapshot.wall_seconds:.3f}s · {snapshot.flows_replayed} flows · "
        f"{snapshot.flows_per_second:,.0f} flows/sec"
    )
    counter_lines = [f"  {name} = {value}" for name, value in snapshot.counters.items()]
    parts = [table, headline]
    for section in (format_kernel_breakdown(snapshot), format_group_state_breakdown(snapshot)):
        if section:
            parts.append(section)
    if counter_lines:
        parts.append("counters:")
        parts.extend(counter_lines)
    if snapshot.gauges:
        parts.append("gauges:")
        parts.extend(f"  {name} = {value:,.0f}" for name, value in snapshot.gauges.items())
    return "\n".join(parts)
