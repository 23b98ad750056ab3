"""The ``repro`` command-line interface.

The subcommands cover the everyday workflow::

    python -m repro run paper-fig7 --flows 2000          # run a preset
    python -m repro run my-scenario.json --out out.json  # run a spec file
    python -m repro run traffic-mix --traffic uniform    # swap the workload
    python -m repro compare out.json                     # reductions vs baseline
    python -m repro compare paper-fig7 --flows 2000      # ... of a fresh preset run
    python -m repro diff a.json b.json                   # exit 1 unless they compute the same
    python -m repro list-scenarios                       # presets + control planes
    python -m repro list-traffic-models                  # registered trace generators
    python -m repro list-topologies                      # registered topology shapes
    python -m repro list-table-policies                  # flow-table timeout policies
    python -m repro bench --out-dir bench-out            # machine-readable benchmarks
    python -m repro bench --check                        # gate on committed baselines
    python -m repro profile paper-fig7 --flows 2000      # per-stage perf breakdown
    python -m repro run paper-fig7 --events-out ev.jsonl # structured event trace
    python -m repro timeline table-pressure              # per-bucket sparklines
    python -m repro heatmap incast-congestion            # link-utilization heatmap
    python -m repro trace-export ev.jsonl --out trace.json  # Perfetto-loadable

``run`` accepts either a preset name (see ``list-scenarios``) or a path to a
JSON scenario spec (written with ``ScenarioSpec.save`` or by hand).

The run-like subcommands — ``run``, ``profile``, ``timeline``, ``heatmap``,
``bench`` and ``compare`` on a preset — share one run loop (:func:`_runs`)
and one set of spec-override flags.  Each flag is one row of
:data:`OVERRIDE_FLAGS`: the flag, its argparse type and help, and the spec
edit it makes.  The rows are applied in table order, and each edits the one
place the spec keeps its setting: ``--flows``, ``--switches``, ``--hosts``,
``--seed`` (topology and traffic seed), ``--duration-hours``,
``--systems``, ``--churn-rate`` / ``--churn-seed``,
``--table-capacity`` / ``--table-policy`` (``config.flow_table``),
``--queueing-ms`` (``config.latency``) and ``--uplink-mbps`` (``links``).
``--traffic`` and ``--topology`` swap in any registered traffic model or
topology shape by name, carrying the old spec's dimensions over where the
new shape supports them.  ``--exec`` overrides the spec's
:class:`~repro.replay.spec.ExecutionSpec` — *how* the replay runs — as
``key=value`` pairs or a JSON object::

    python -m repro run paper-fig7-10m --exec workers=4,shard-strategy=time-window,shard-count=8
    python -m repro bench --presets paper-fig7 --exec '{"workers": 4}'

``compare`` takes the flags too, for a preset it runs; a results file is
compared as it was written.  ``diff`` takes two results files and nothing
else: it prints each JSON path at which they drift, their ``execution``
blocks aside, and exits 1 if any does.  Multi-scenario presets fan out over
``run --workers`` processes.  ``bench`` replays the benchmark presets and
writes one ``BENCH_<scenario>.json`` per scenario (controller workload,
latency, regroup, churn, table and link counters, per-bucket timelines —
nothing timed); with ``--check`` each fresh payload, minus its
``execution`` block, must equal the baseline committed under
``benchmarks/baselines/``, or the command exits non-zero.  Timing lives in
the stage ledger (``benchmarks/ledger/``).  ``profile`` instruments a
replay and prints where the wall-clock went, stage by stage.

Observability: ``run --events-out events.jsonl`` streams every structured
event (packet-ins, flow installs/removals, evictions, regroupings, churn) to
JSONL in O(1) memory, with ``--trace-sample`` thinning the high-volume event
types deterministically; ``timeline`` renders per-bucket sparklines of the
same series; ``trace-export`` converts an event stream (plus an optional
``profile --out`` snapshot) into a Chrome trace-event JSON loadable in
Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.core.runner import ScenarioResult
    from repro.core.scenario import ScenarioSpec

# Each subcommand imports what it runs inside its handler, so building the
# parser (and ``--help``) imports nothing of the simulator, and a run loads
# only the modules its spec uses (README "Start-up cost").

#: Presets the ``bench`` subcommand replays by default.
BENCH_PRESETS = ("paper-fig7", "churn-migration", "traffic-mix")

#: Full-scale presets benchmarked by their own CI steps rather than the
#: default list: they take minutes, so a full default run must not flag
#: their committed baselines as stale.
SMOKE_BENCH_PRESETS = (
    "paper-fig7-10m",
    "paper-fig7-100m",
    "paper-fig7-vectorized",
    "table-pressure",
    "incast-congestion",
)

#: Where ``bench --check`` looks for committed baselines by default.
DEFAULT_BASELINE_DIR = "benchmarks/baselines"

#: Help of the positional argument of ``run``, ``profile``, ``timeline`` and ``heatmap``.
SCENARIO_HELP = "preset name or path to a ScenarioSpec JSON file"


def _replace(obj, **changes):
    """``dataclasses.replace``, imported on first use so ``--help`` never loads it."""
    import dataclasses

    return dataclasses.replace(obj, **changes)


# -- the override flags --------------------------------------------------------


def _swap(field: str, kind: str, carried: Sequence[str]) -> Callable[[ScenarioSpec, str], ScenarioSpec]:
    """The edit swapping ``spec.<field>`` for the registry entry named by its ``kind`` field.

    The swapped-in entry keeps those of the old entry's resolved ``carried``
    params it accepts.  Without this a ``--traffic`` / ``--topology`` swap
    would silently fall back to the new entry's defaults (e.g. 200k flows)
    instead of the preset's scale.
    """

    def apply(spec: ScenarioSpec, name: str) -> ScenarioSpec:
        old = getattr(spec, field)
        if name == getattr(old, kind):
            return spec
        replacement = type(old)(**{kind: name})
        supported = replacement.entry().param_names()
        old_params = old.resolved_params()
        params = {
            key: getattr(old_params, key)
            for key in carried
            if key in supported and getattr(old_params, key, None) is not None
        }
        return _replace(spec, **{field: replacement.with_params(**params)})

    return apply


def _field(path: str) -> Callable[[Any, Any], Any]:
    """The edit setting the (nested) dataclass field at dotted ``path`` to the flag's value."""
    head, _, rest = path.partition(".")
    if not rest:
        return lambda owner, value: _replace(owner, **{head: value})
    inner = _field(rest)
    return lambda owner, value: _replace(owner, **{head: inner(getattr(owner, head), value)})


def _params(key: str, *fields: str) -> Callable[[ScenarioSpec, Any], ScenarioSpec]:
    """The edit setting registry param ``key`` of each of ``spec.<fields>`` to the flag's value."""
    return lambda spec, value: _replace(
        spec, **{field: getattr(spec, field).with_params(**{key: value}) for field in fields}
    )


def _set_switches(spec: ScenarioSpec, switches: int) -> ScenarioSpec:
    if switches != spec.topology.dimensions()[0]:
        # Re-run the preset sizing heuristic: a group-size limit tuned
        # for the original scale would let a smaller topology collapse
        # into a single group and never exercise inter-group traffic.
        from repro.core.presets import default_grouping_config

        limit = default_grouping_config(switches).grouping.group_size_limit
        spec = _field("config.grouping.group_size_limit")(spec, limit)
    return _params("switch_count", "topology")(spec, switches)


def _set_exec(spec: ScenarioSpec, text: str) -> ScenarioSpec:
    from repro.replay.spec import ExecutionSpec

    return _replace(spec, execution=ExecutionSpec.parse(text, base=spec.execution))


def _churn(spec: ScenarioSpec, **changes: float) -> ScenarioSpec:
    """``spec`` with ``changes`` made to its churn section (a default one if it has none)."""
    from repro.churn.spec import ChurnSpec

    return _replace(spec, churn=_replace(spec.churn or ChurnSpec(), **changes))


def _set_churn_rate(spec: ScenarioSpec, rate: float) -> ScenarioSpec:
    if rate == 0:
        # Zero disables every churn process, not just migrations.
        rates = ("migration", "drift", "tenant_arrival", "tenant_departure")
        return _churn(spec, **{f"{process}_rate_per_hour": 0.0 for process in rates})
    return _churn(spec, migration_rate_per_hour=rate)


def _set_uplink(spec: ScenarioSpec, mbps: float) -> ScenarioSpec:
    from repro.bandwidth.spec import LinkCapacitySpec

    return _replace(spec, links=_replace(spec.links or LinkCapacitySpec(), uplink_mbps=mbps))


def _set_table_policy(spec: ScenarioSpec, policy: str) -> ScenarioSpec:
    # Swapping the policy drops the old policy's params (they rarely
    # transfer between policies) but keeps capacity and timeouts.
    table = _replace(spec.config.flow_table, policy=policy, policy_params={})
    return _field("config.flow_table")(spec, table)


#: Every spec-override flag as ``(flag, argparse type, help, spec edit)``,
#: applied in this order.  The swaps come first so that ``--switches`` /
#: ``--flows`` / ``--seed`` edit the swapped-in entry.
OVERRIDE_FLAGS = (
    (
        "--topology", str, "swap in a registered topology shape by name (see list-topologies)",
        _swap("topology", "shape", ("switch_count", "host_count", "seed")),
    ),
    (
        "--traffic", str, "swap in a registered traffic model by name (see list-traffic-models)",
        _swap("traffic", "model", ("total_flows", "duration_hours", "seed")),
    ),
    ("--switches", int, "override switch count", _set_switches),
    ("--hosts", int, "override host count", _params("host_count", "topology")),
    ("--flows", int, "override total flow count", _params("total_flows", "traffic")),
    ("--seed", int, "override topology/traffic seed", _params("seed", "topology", "traffic")),
    ("--duration-hours", float, "override replay duration", _field("schedule.duration_hours")),
    (
        "--systems", str, "comma-separated control-plane names",
        lambda spec, names: _replace(spec, systems=tuple(n.strip() for n in names.split(",") if n.strip())),
    ),
    (
        "--exec", str,
        "override the execution spec as key=value pairs (workers, shard-strategy, "
        "shard-count, stream, kernel) or a JSON object, e.g. --exec workers=4,shard-strategy=time-window",
        _set_exec,
    ),
    (
        "--table-policy", str, "timeout/eviction policy for the flow tables (see list-table-policies)",
        _set_table_policy,
    ),
    (
        "--table-capacity", int, "cap every switch's flow table at this many rules",
        lambda spec, capacity: _field("config.flow_table")(spec, spec.config.flow_table.resized(capacity)),
    ),
    (
        "--queueing-ms", float,
        "M/M/1 service time in ms for the utilization-dependent queueing "
        "delay on capacitated uplinks (0 disables the term)",
        _field("config.latency.queueing_service_ms"),
    ),
    (
        "--churn-rate", float,
        "override the VM migration churn rate (migrations per simulated hour; 0 disables)",
        _set_churn_rate,
    ),
    ("--churn-seed", int, "override the churn RNG seed", lambda spec, seed: _churn(spec, seed=seed)),
    (
        "--uplink-mbps", float,
        "assign every edge-switch uplink this capacity in Mbps "
        "(enables link-utilization accounting and the queueing latency term)",
        _set_uplink,
    ),
)


def _override_parser() -> argparse.ArgumentParser:
    """The argparse parent every run-like subcommand takes its override flags from."""
    parent = argparse.ArgumentParser(add_help=False)
    for flag, kind, help, _ in OVERRIDE_FLAGS:
        parent.add_argument(flag, type=kind, help=help)
    return parent


def _given(args: argparse.Namespace) -> Iterator[Tuple[Callable[[ScenarioSpec, Any], ScenarioSpec], Any]]:
    """Each override flag ``args`` carries, as ``(spec edit, value)`` in table order."""
    for flag, _, _, edit in OVERRIDE_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            yield edit, value


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """``spec`` with every override flag ``args`` carries applied, in table order."""
    for edit, value in _given(args):
        spec = edit(spec, value)
    return spec


# -- the run loop --------------------------------------------------------------


def _scenarios(args: argparse.Namespace, target: str) -> List[ScenarioSpec]:
    """Resolve ``target`` — a spec JSON file or a preset name — and apply the override flags to each spec."""
    path = Path(target)
    if target.endswith(".json") or path.is_file():
        from repro.core.scenario import ScenarioSpec

        specs = [ScenarioSpec.load(path)]
    else:
        from repro.core.presets import get_preset

        specs = get_preset(target).specs()
    return [_apply_overrides(spec, args) for spec in specs]


def _runs(
    specs: List[ScenarioSpec], *, workers: Optional[int] = None, **run_options: Any
) -> Iterator[ScenarioResult]:
    """The one run loop behind every run-like subcommand: each spec's result, in turn.

    The specs run one after another with ``run_options`` (``obs``,
    ``collect_perf``), or fanned out over ``workers`` processes.
    """
    from repro.core.runner import ScenarioRunner

    runner = ScenarioRunner()
    if workers:
        from repro.replay.spec import ExecutionSpec

        yield from runner.run_many(specs, execution=ExecutionSpec(workers=workers))
    else:
        for spec in specs:
            yield runner.run(spec, **run_options)


def _print_result(result: ScenarioResult) -> None:
    """Print the summary table for one scenario."""
    from repro.common.formatting import format_percent, format_table

    baseline_name = next(iter(result.runs))
    with_churn = any(run.churn is not None for run in result.runs.values())
    rows = []
    for name, run in result.runs.items():
        reduction = result.reduction(baseline_name, name) if name != baseline_name else 0.0
        row = [
            run.label,
            run.total_controller_requests,
            format_percent(reduction) if name != baseline_name else "-",
            f"{run.latency.overall_mean_ms:.3f}",
            f"{sum(run.updates_per_hour):.0f}",
            run.failover_events,
        ]
        if with_churn:
            row.append(run.churn.total_events() if run.churn is not None else 0)
        rows.append(row)
    headers = ["Control plane", "Controller requests", "Reduction vs baseline",
               "Mean latency (ms)", "Grouping updates", "Failover events"]
    if with_churn:
        headers.append("Churn events")
    print(format_table(headers, rows, title=f"Scenario '{result.spec.name}'"))


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _scenarios(args, args.scenario)
    if args.events_out is not None:
        # Tracing pins the run to this process (one shared events file), so
        # multi-scenario presets would overwrite each other's streams.
        if len(specs) > 1:
            from repro.common.errors import ReproError

            raise ReproError(
                f"--events-out needs a single scenario; {args.scenario!r} expands to "
                f"{len(specs)} — pick one of: " + ", ".join(spec.name for spec in specs)
            )
        from repro.obs.tracer import TraceOptions

        obs = TraceOptions(events_path=args.events_out, sample=args.trace_sample, timeline=True)
        results = list(_runs(specs, obs=obs))
        print(f"Events written to {args.events_out}\n")
    else:
        results = list(_runs(specs, workers=args.workers))
    for index, result in enumerate(results):
        if index:
            print()
        _print_result(result)
    if args.out is not None:
        payload = [result.to_dict() for result in results]
        Path(args.out).write_text(
            json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"\nResults written to {args.out}")
    return 0


def _read_results(target: str) -> List[ScenarioResult]:
    """The results a ``repro run --out`` file holds: one scenario's, or a list."""
    from repro.common.errors import ReproError
    from repro.core.runner import ScenarioResult

    try:
        data = json.loads(Path(target).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ReproError(f"{target} is not JSON: {error}") from None
    payloads = data if isinstance(data, list) else [data]
    for payload in payloads:
        if not isinstance(payload, dict) or "spec" not in payload or "runs" not in payload:
            raise ReproError(
                f"{target} is not a results file; expected the JSON written by "
                "'repro run --out' (a scenario spec cannot be compared directly)"
            )
    return [ScenarioResult.from_dict(payload) for payload in payloads]


def _load_results(args: argparse.Namespace) -> List[ScenarioResult]:
    """Resolve a ``compare`` argument: a results JSON file or a preset to run."""
    target = args.target
    if target.endswith(".json") or Path(target).is_file():
        if any(_given(args)):
            from repro.common.errors import ReproError

            raise ReproError(f"{target} is a results file; override flags apply to a preset run")
        return _read_results(target)
    from repro.obs.tracer import TraceOptions

    # Timeline observation gives compare its latency histograms (p50/p95/p99);
    # results loaded from a file show "-" when the run was not traced.
    return list(_runs(_scenarios(args, target), obs=TraceOptions(timeline=True)))


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.heatmap import format_percentile
    from repro.common.formatting import format_percent, format_table

    for index, result in enumerate(_load_results(args)):
        if index:
            print()
        baseline = args.baseline or next(iter(result.runs))
        try:
            baseline_run = result.result_for(baseline)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        rows = []
        for name, run in result.runs.items():
            if run.label == baseline_run.label:
                continue
            rows.append([
                run.label,
                format_percent(result.reduction(baseline, name)),
                f"{baseline_run.latency.overall_mean_ms:.3f}",
                f"{run.latency.overall_mean_ms:.3f}",
                format_percentile(run, 0.50),
                format_percentile(run, 0.95),
                format_percentile(run, 0.99),
            ])
        if not rows:
            print(f"Scenario '{result.spec.name}': nothing to compare against {baseline_run.label!r}")
            continue
        print(format_table(
            ["Control plane", f"Workload reduction vs {baseline_run.label}",
             "Baseline latency (ms)", "Latency (ms)",
             "p50 (ms)", "p95 (ms)", "p99 (ms)"],
            rows,
            title=f"Scenario '{result.spec.name}'",
        ))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.common.diff import payload_drift

    def computed(path: str) -> dict:
        """Each scenario's results, by name, minus how they were executed."""
        return {result.spec.name: {**result.to_dict(), "execution": None} for result in _read_results(path)}

    drift = payload_drift(computed(args.first), computed(args.second))
    print("\n".join(drift) or f"no drift between {args.first} and {args.second}")
    return 1 if drift else 0


def _bench_payload(preset_name: str, result: ScenarioResult) -> dict:
    """The machine-readable benchmark record for one scenario run.

    Every value is replay arithmetic, deterministic for the spec, so
    ``--check`` can gate on it; nothing timed or host-dependent goes in.
    """
    from repro.core.runner import TIMED_KEYS

    systems = {}
    for name, run in result.runs.items():
        record = {
            "label": run.label,
            "flows_handled": run.counters.flows_handled + run.counters.departed_flows,
            "total_controller_requests": run.total_controller_requests,
            "mean_krps": run.workload.mean_krps(),
            "peak_krps": run.workload.peak_krps(),
            "mean_latency_ms": run.latency.overall_mean_ms,
            "grouping_updates": sum(run.updates_per_hour),
            "churn_events": run.churn.total_events() if run.churn is not None else 0,
            "churn_attributed_regroupings": (
                run.churn.churn_attributed_regroupings if run.churn is not None else 0
            ),
        }
        if run.tables is not None:
            record.update(
                {
                    "table_overflows": run.tables.overflows,
                    "table_evictions": run.tables.evictions,
                    "table_timeouts": run.tables.idle_timeouts + run.tables.hard_timeouts,
                    "table_reinstalls": run.tables.reinstalls,
                    "table_peak_occupancy": run.tables.peak_occupancy,
                    "flow_removed_messages": run.tables.flow_removed_messages,
                }
            )
        if run.timeline is not None:
            # Count series only: they are exact (each sums to a scalar
            # counter above) so --check can gate on them bucket for bucket;
            # gauges stay out (timing-flavoured, not exact).
            record["timeline"] = {"bucket_seconds": run.timeline.bucket_seconds, "counts": run.timeline.counts}
            # Whole-run latency percentiles from the exact log-histogram:
            # deterministic per scenario, so gated like everything else.
            for label, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                value = run.timeline.latency_percentile(fraction)
                if value is not None:
                    record[f"latency_{label}_ms"] = value
        if run.links is not None:
            record.update(
                {
                    "congested_flows": run.counters.congested_flows,
                    "link_congested_cells": run.links.congested_cells,
                    "link_peak_utilization": run.links.peak_utilization,
                }
            )
            if run.timeline is not None:
                record["link_utilization_max"] = run.links.bucket_maxima(
                    run.timeline.bucket_seconds, run.timeline.bucket_count
                )
        systems[name] = record
    switches, hosts = result.spec.topology.dimensions()
    return {
        "scenario": result.spec.name,
        "preset": preset_name,
        "flows": result.spec.traffic.total_flows,
        "switches": switches,
        "hosts": hosts,
        "systems": systems,
        # How the run was executed, not what it computed: --check skips it.
        "execution": {key: value for key, value in result.execution.items() if key not in TIMED_KEYS},
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.tracer import TraceOptions

    preset_names = [name.strip() for name in args.presets.split(",") if name.strip()]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = []
    for preset_name in preset_names:
        for result in _runs(_scenarios(args, preset_name), obs=TraceOptions(timeline=True)):
            payload = _bench_payload(preset_name, result)
            payloads.append(payload)
            path = out_dir / f"BENCH_{result.spec.name}.json"
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    if args.check:
        # A full run (the default preset list) must cover every committed
        # baseline, otherwise the perf gate silently loses a scenario; a
        # --presets subset legitimately skips some, so stale files only warn.
        full_run = preset_names == list(BENCH_PRESETS)
        return _check_baselines(payloads, args.baseline_dir, stale_fails=full_run)
    return 0


def _check_baselines(payloads: List[dict], baseline_dir: str, *, stale_fails: bool) -> int:
    """Compare fresh bench payloads against committed baselines; 1 on drift."""
    from repro.core.presets import get_preset
    from repro.perf.baseline import check_against_baselines

    checks, problems, stale = check_against_baselines(payloads, baseline_dir)
    # Scale-smoke baselines are produced by their own CI job, never by the
    # default preset list — a default full run must not treat them as stale.
    smoke_files = {
        f"BENCH_{spec.name}.json"
        for preset_name in SMOKE_BENCH_PRESETS
        for spec in get_preset(preset_name).specs()
    }
    failures = [f"FAIL: {problem}" for problem in problems]
    for path in stale:
        if Path(path).name in smoke_files:
            continue
        if stale_fails:
            failures.append(
                f"FAIL: committed baseline {path} is not covered by any benchmark "
                "preset — remove it or restore its scenario"
            )
        else:
            print(f"warning: committed baseline {path} was not covered by this run "
                  "— remove it or include its preset")
    for check in checks:
        if check.ok:
            print(f"OK: {check.scenario} equals its baseline")
        failures.extend(f"FAIL [{check.scenario}]: {failure}" for failure in check.failures)
    if not failures:
        return 0
    print("\n".join(failures), file=sys.stderr)
    print(
        "\nbaseline check failed — if the change is intentional, regenerate with\n"
        f"  repro bench --flows <flows> --out-dir {baseline_dir}\n"
        "and commit the updated BENCH_*.json files",
        file=sys.stderr,
    )
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf.report import format_stage_breakdown

    snapshots = []
    first = True
    for result in _runs(_scenarios(args, args.scenario), collect_perf=True):
        for name, run in result.runs.items():
            if not first:
                print()
            first = False
            label = f"{result.spec.name} · {run.label}"
            if run.perf is None:  # pragma: no cover - every built-in plane is instrumented
                print(f"{label}: control plane exposes no perf instrumentation")
                continue
            print(format_stage_breakdown(run.perf, label=label))
            snapshots.append({"scenario": result.spec.name, "system": name, "perf": run.perf.to_dict()})
    if args.out is not None:
        Path(args.out).write_text(json.dumps(snapshots, indent=2) + "\n", encoding="utf-8")
        print(f"\nPerf snapshots written to {args.out}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import render_timeline
    from repro.obs.tracer import TraceOptions

    obs = TraceOptions(timeline=True, timeline_bucket_seconds=args.bucket_seconds)
    first = True
    for result in _runs(_scenarios(args, args.scenario), obs=obs):
        for run in result.runs.values():
            if not first:
                print()
            first = False
            print(render_timeline(run.timeline, label=f"{result.spec.name} · {run.label}"))
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from repro.analysis.heatmap import hot_links_report, latency_percentile_rows, render_heatmap
    from repro.common.errors import ReproError
    from repro.common.formatting import format_table
    from repro.obs.tracer import TraceOptions

    specs = _scenarios(args, args.scenario)
    for spec in specs:
        if not spec.build_network().has_link_capacities():
            raise ReproError(
                f"scenario {spec.name!r} assigns no link capacities — set "
                "'links.uplink_mbps' in the spec or pass --uplink-mbps"
            )
    first = True
    for result in _runs(specs, obs=TraceOptions(timeline=True)):
        for run in result.runs.values():
            if not first:
                print()
            first = False
            print(render_heatmap(run.links, label=f"{result.spec.name} · {run.label}"))
            print(hot_links_report(run.links, threshold=args.threshold))
        print()
        print(format_table(
            ["Control plane", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
            latency_percentile_rows(list(result.runs.values())),
            title=f"Scenario '{result.spec.name}' first-packet latency percentiles",
        ))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    from repro.obs.export import validate_chrome_trace, write_chrome_trace

    events, entries = write_chrome_trace(args.events, args.out, profile_path=args.profile)
    # Re-validate what was just written so a broken export fails here, not
    # silently when someone loads it into Perfetto.
    validate_chrome_trace(json.loads(Path(args.out).read_text(encoding="utf-8")))
    print(f"wrote {args.out} ({events} events, {entries} trace entries)")
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from repro.common.formatting import format_table
    from repro.core.presets import list_presets
    from repro.core.registry import available_control_planes

    preset_rows = [[preset.name, len(preset.specs()), preset.description] for preset in list_presets()]
    print(format_table(["Preset", "Scenarios", "Description"], preset_rows, title="Presets"))
    print()
    plane_rows = [
        [entry.name, entry.label, entry.description]
        for entry in available_control_planes()
    ]
    print(format_table(["Name", "Label", "Description"], plane_rows, title="Registered control planes"))
    return 0


def _print_registry_table(entries, title: str) -> None:
    """Print the name/label/params/description table for one workload registry."""
    from repro.common.formatting import format_table

    rows = [
        [entry.name, entry.label, ", ".join(sorted(entry.param_names())), entry.description]
        for entry in entries
    ]
    print(format_table(["Name", "Label", "Params", "Description"], rows, title=title))


def _cmd_list_traffic_models(args: argparse.Namespace) -> int:
    from repro.traffic.registry import available_traffic_models

    _print_registry_table(available_traffic_models(), "Registered traffic models")
    return 0


def _cmd_list_topologies(args: argparse.Namespace) -> int:
    from repro.topology.registry import available_topologies

    _print_registry_table(available_topologies(), "Registered topology shapes")
    return 0


def _cmd_list_table_policies(args: argparse.Namespace) -> int:
    from repro.tables.registry import available_table_policies

    _print_registry_table(available_table_policies(), "Registered flow-table policies")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LazyCtrl reproduction: run declarative control-plane scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    overrides = _override_parser()

    def command(name: str, handler, help: str, *, runs: bool = False) -> argparse.ArgumentParser:
        """Add subcommand ``name``; a run-like one (``runs``) takes the override flags."""
        sub = subparsers.add_parser(name, help=help, parents=[overrides] if runs else [])
        sub.set_defaults(handler=handler)
        return sub

    run = command("run", _cmd_run, "run a preset or a JSON scenario spec", runs=True)
    run.add_argument("scenario", help=SCENARIO_HELP)
    run.add_argument("--workers", type=int, help="process fan-out for multi-scenario runs")
    run.add_argument("--out", help="write results JSON to this path")
    run.add_argument("--events-out", help="stream structured trace events to this JSONL file (single-scenario runs)")
    run.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="sampling rate in (0, 1] for high-volume event types in --events-out "
        "(deterministic stride, no RNG; lifecycle events are always written)",
    )

    bench = command(
        "bench", _cmd_bench, "run the benchmark presets and write BENCH_<scenario>.json files", runs=True
    )
    bench.add_argument(
        "--presets",
        default=",".join(BENCH_PRESETS),
        help="comma-separated preset names to benchmark",
    )
    bench.add_argument("--out-dir", default=".", help="directory for the BENCH_*.json files")
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless each fresh payload, minus its execution block, equals its committed baseline",
    )
    bench.add_argument(
        "--baseline-dir",
        default=DEFAULT_BASELINE_DIR,
        help="directory holding the committed BENCH_*.json baselines",
    )

    profile = command(
        "profile", _cmd_profile, "replay a scenario with instrumentation and print the stage breakdown", runs=True
    )
    profile.add_argument("scenario", help=SCENARIO_HELP)
    profile.add_argument("--out", help="write the perf snapshots JSON to this path")

    timeline = command(
        "timeline", _cmd_timeline, "replay a scenario and render per-bucket sparkline timelines", runs=True
    )
    timeline.add_argument("scenario", help=SCENARIO_HELP)
    timeline.add_argument(
        "--bucket-seconds", type=float, help="timeline bucket width (defaults to the scenario's result bucket)"
    )

    trace_export = command(
        "trace-export",
        _cmd_trace_export,
        "convert an --events-out JSONL stream into Chrome trace-event JSON (Perfetto)",
    )
    trace_export.add_argument("events", help="events JSONL file written by 'run --events-out'")
    trace_export.add_argument("--out", required=True, help="path for the Chrome trace JSON")
    trace_export.add_argument("--profile", help="perf snapshots JSON from 'profile --out' to add per-stage spans")

    heatmap = command(
        "heatmap",
        _cmd_heatmap,
        "replay a capacitated scenario and render link-utilization heatmaps + p99s",
        runs=True,
    )
    heatmap.add_argument("scenario", help=SCENARIO_HELP)
    heatmap.add_argument(
        "--threshold",
        type=float,
        default=1.0,
        help="utilization threshold for the hot-links table (fraction of capacity)",
    )

    compare = command("compare", _cmd_compare, "compare runs from a results file or preset", runs=True)
    compare.add_argument("target", help="results JSON (from 'run --out') or preset name")
    compare.add_argument("--baseline", help="baseline system name or label")

    diff = command("diff", _cmd_diff, "exit 1 unless two results files, minus their execution blocks, are equal")
    diff.add_argument("first", help="results JSON (from 'run --out')")
    diff.add_argument("second", help="results JSON to hold to the first")

    command("list-scenarios", _cmd_list_scenarios, "list presets and registered control planes")
    command(
        "list-traffic-models", _cmd_list_traffic_models, "list registered traffic models and their params"
    )
    command("list-topologies", _cmd_list_topologies, "list registered topology shapes and their params")
    command(
        "list-table-policies",
        _cmd_list_table_policies,
        "list registered flow-table timeout/eviction policies",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.common.errors import ReproError, ShardFailure

    try:
        return args.handler(args)
    except ShardFailure:
        # A bug inside one shard's replay: its (chained) traceback matters.
        import traceback

        traceback.print_exc()
        return 1
    except (ReproError, FileNotFoundError, json.JSONDecodeError) as error:
        # KeyError deliberately not caught: a missing dict key anywhere in a
        # replay is a bug whose traceback matters, not a usage error.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
