"""The ``repro`` command-line interface.

Seven subcommands cover the everyday workflow::

    python -m repro run paper-fig7 --flows 2000          # run a preset
    python -m repro run my-scenario.json --out out.json  # run a spec file
    python -m repro run traffic-mix --traffic uniform    # swap the workload
    python -m repro compare out.json                     # reductions vs baseline
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
JSON scenario spec (written with ``ScenarioSpec.save`` or by hand).  Common
spec fields can be overridden from the command line (``--flows``,
``--switches``, ``--hosts``, ``--duration-hours``, ``--systems``, ``--seed``,
``--traffic``, ``--topology``, ``--churn-rate``, ``--churn-seed``).  Each
override edits the one place the spec keeps its setting:
``--table-capacity``/``--table-policy`` put finite-flow-table pressure into
``config.flow_table``, ``--queueing-ms`` sets the queueing term in
``config.latency``, and ``--uplink-mbps`` sets the capacity in ``links``.
``--exec`` overrides the spec's :class:`~repro.replay.spec.ExecutionSpec`
— *how* the replay runs — as ``key=value`` pairs or a JSON object::

    python -m repro run paper-fig7-10m --exec workers=4,shard-strategy=time-window,shard-count=8
    python -m repro bench --presets paper-fig7 --exec '{"workers": 4}'

Multi-scenario presets fan out over ``--workers`` processes.  ``--traffic``
and ``--topology`` swap in any registered traffic model or topology shape by
name, carrying the old spec's dimensions over where the new shape supports
them.  ``bench`` replays the benchmark presets and writes one
``BENCH_<scenario>.json`` per scenario (controller workload, latency,
regroup, churn, table and link counters, per-bucket timelines — nothing
timed); with ``--check`` it additionally compares the fresh payloads
against the baselines committed under ``benchmarks/baselines/`` and exits
non-zero on drift.  Timing lives in the stage ledger
(``benchmarks/ledger/``).  ``profile`` instruments a replay and prints
where the wall-clock went, stage by stage.

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
from typing import TYPE_CHECKING, List, Optional, Sequence

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


def _load_specs(target: str) -> List[ScenarioSpec]:
    """Resolve a CLI scenario argument into specs: a JSON file or a preset name."""
    path = Path(target)
    if target.endswith(".json") or path.is_file():
        from repro.core.scenario import ScenarioSpec

        return [ScenarioSpec.load(path)]
    from repro.core.presets import get_preset

    return list(get_preset(target).specs())


def _carry_params(old, replacement, keys: Sequence[str]):
    """``replacement`` with those of ``old``'s resolved ``keys`` its entry accepts.

    Without this a ``--traffic`` / ``--topology`` swap would silently fall
    back to the new entry's defaults (e.g. 200k flows) instead of the
    preset's scale.
    """
    supported = replacement.entry().param_names()
    old_params = old.resolved_params()
    carried = {
        key: getattr(old_params, key)
        for key in keys
        if key in supported and getattr(old_params, key, None) is not None
    }
    return replacement.with_params(**carried) if carried else replacement


def _apply_overrides(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """Apply ``--flows``/``--switches``/``--traffic``/... overrides to one spec."""
    import dataclasses

    topology = spec.topology
    config = spec.config
    if getattr(args, "topology", None) is not None and args.topology != topology.shape:
        from repro.core.scenario import TopologySpec

        topology = _carry_params(
            topology, TopologySpec(shape=args.topology), ("switch_count", "host_count", "seed")
        )

    topology_overrides = {}
    if args.switches is not None:
        topology_overrides["switch_count"] = args.switches
        if args.switches != topology.dimensions()[0]:
            # Re-run the preset sizing heuristic: a group-size limit tuned
            # for the original scale would let a smaller topology collapse
            # into a single group and never exercise inter-group traffic.
            from repro.core.presets import default_grouping_config

            config = dataclasses.replace(
                config,
                grouping=dataclasses.replace(
                    config.grouping,
                    group_size_limit=default_grouping_config(args.switches).grouping.group_size_limit,
                ),
            )
    if args.hosts is not None:
        topology_overrides["host_count"] = args.hosts
    if args.seed is not None:
        topology_overrides["seed"] = args.seed
    if topology_overrides:
        topology = topology.with_params(**topology_overrides)

    traffic = spec.traffic
    if getattr(args, "traffic", None) is not None and args.traffic != traffic.model:
        from repro.core.scenario import TraceSpec

        traffic = _carry_params(
            traffic, TraceSpec(model=args.traffic), ("total_flows", "duration_hours", "seed")
        )
    traffic_overrides = {}
    if args.flows is not None:
        traffic_overrides["total_flows"] = args.flows
    if args.seed is not None:
        traffic_overrides["seed"] = args.seed
    if traffic_overrides:
        traffic = traffic.with_params(**traffic_overrides)

    schedule = spec.schedule
    if args.duration_hours is not None:
        schedule = dataclasses.replace(schedule, duration_hours=args.duration_hours)

    systems = spec.systems
    if args.systems is not None:
        systems = tuple(name.strip() for name in args.systems.split(",") if name.strip())

    execution = spec.execution
    if getattr(args, "exec_spec", None) is not None:
        from repro.replay.spec import ExecutionSpec

        execution = ExecutionSpec.parse(args.exec_spec, base=execution)

    table = config.flow_table
    if getattr(args, "table_policy", None) is not None:
        # Swapping the policy drops the old policy's params (they rarely
        # transfer between policies) but keeps capacity and timeouts.
        table = dataclasses.replace(table, policy=args.table_policy, policy_params={})
    if getattr(args, "table_capacity", None) is not None:
        table = table.resized(args.table_capacity)
    latency = config.latency
    if getattr(args, "queueing_ms", None) is not None:
        latency = dataclasses.replace(latency, queueing_service_ms=args.queueing_ms)
    config = dataclasses.replace(config, flow_table=table, latency=latency)

    churn = spec.churn
    churn_rate = getattr(args, "churn_rate", None)
    churn_seed = getattr(args, "churn_seed", None)
    if churn_rate is not None or churn_seed is not None:
        from repro.churn.spec import ChurnSpec

        churn = churn or ChurnSpec()
        if churn_rate == 0:
            # Zero disables every churn process, not just migrations.
            churn = dataclasses.replace(
                churn,
                migration_rate_per_hour=0.0,
                drift_rate_per_hour=0.0,
                tenant_arrival_rate_per_hour=0.0,
                tenant_departure_rate_per_hour=0.0,
            )
        elif churn_rate is not None:
            churn = dataclasses.replace(churn, migration_rate_per_hour=churn_rate)
        if churn_seed is not None:
            churn = dataclasses.replace(churn, seed=churn_seed)

    links = spec.links
    if getattr(args, "uplink_mbps", None) is not None:
        from repro.bandwidth.spec import LinkCapacitySpec

        links = dataclasses.replace(
            links or LinkCapacitySpec(), uplink_mbps=args.uplink_mbps
        )

    return dataclasses.replace(
        spec,
        topology=topology,
        traffic=traffic,
        schedule=schedule,
        systems=systems,
        config=config,
        churn=churn,
        execution=execution,
        links=links,
    )


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
    from repro.common.errors import ReproError
    from repro.core.runner import ScenarioRunner

    specs = [_apply_overrides(spec, args) for spec in _load_specs(args.scenario)]
    if args.events_out is not None:
        # Tracing pins the run to this process (one shared events file), so
        # multi-scenario presets would overwrite each other's streams.
        if len(specs) > 1:
            raise ReproError(
                f"--events-out needs a single scenario; {args.scenario!r} expands to "
                f"{len(specs)} — pick one of: "
                + ", ".join(spec.name for spec in specs)
            )
        from repro.obs.tracer import TraceOptions

        obs = TraceOptions(
            events_path=args.events_out, sample=args.trace_sample, timeline=True
        )
        results = [ScenarioRunner().run(specs[0], obs=obs)]
        print(f"Events written to {args.events_out}\n")
    else:
        fan_out = None
        if args.workers:
            from repro.replay.spec import ExecutionSpec

            fan_out = ExecutionSpec(workers=args.workers)
        results = ScenarioRunner().run_many(specs, execution=fan_out)
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


def _load_results(target: str) -> List[ScenarioResult]:
    """Resolve a ``compare`` argument: a results JSON file or a preset to run."""
    from repro.common.errors import ReproError
    from repro.core.presets import get_preset
    from repro.core.runner import ScenarioResult, ScenarioRunner
    from repro.obs.tracer import TraceOptions

    path = Path(target)
    if target.endswith(".json") or path.is_file():
        data = json.loads(path.read_text(encoding="utf-8"))
        payloads = data if isinstance(data, list) else [data]
        for payload in payloads:
            if not isinstance(payload, dict) or "spec" not in payload or "runs" not in payload:
                raise ReproError(
                    f"{target} is not a results file; expected the JSON written by "
                    "'repro run --out' (a scenario spec cannot be compared directly)"
                )
        return [ScenarioResult.from_dict(payload) for payload in payloads]
    specs = get_preset(target).specs()
    # Timeline observation gives compare its latency histograms (p50/p95/p99);
    # results loaded from a file show "-" when the run was not traced.
    runner = ScenarioRunner()
    obs = TraceOptions(timeline=True)
    return [runner.run(spec, obs=obs) for spec in specs]


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.heatmap import format_percentile
    from repro.common.formatting import format_percent, format_table

    results = _load_results(args.target)
    for index, result in enumerate(results):
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


def _bench_payload(preset_name: str, result: ScenarioResult) -> dict:
    """The machine-readable benchmark record for one scenario run.

    Every value is replay arithmetic, deterministic for the spec, so
    ``--check`` can gate on it; nothing timed or host-dependent goes in.
    """
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
            # gauges stay out (timing-flavoured, not exact), and so does
            # chunks_drained — it counts replay mechanics, which
            # legitimately differ between the streamed and materialized paths
            # replaying the same scenario.
            record["timeline"] = {
                "bucket_seconds": run.timeline.bucket_seconds,
                "counts": {
                    series: values
                    for series, values in run.timeline.counts.items()
                    if series != "chunks_drained"
                },
            }
            # Whole-run latency percentiles from the exact log-histogram.
            # Deterministic per scenario, but bin-quantized — gated as
            # CLOSE, not EXACT, so a one-bin drift tells rather than trips.
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
    payload = {
        "scenario": result.spec.name,
        "preset": preset_name,
        "flows": result.spec.traffic.total_flows,
        "switches": switches,
        "hosts": hosts,
        "systems": systems,
    }
    if result.shards is not None:
        payload["execution"] = {
            **result.spec.execution.to_dict(),
            "strategy": result.shards["strategy"],
            "pooled": result.shards["pooled"],
            "windows_per_system": result.shards["windows_per_system"],
        }
    return payload


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core.presets import get_preset
    from repro.core.runner import ScenarioRunner
    from repro.obs.tracer import TraceOptions

    preset_names = [name.strip() for name in args.presets.split(",") if name.strip()]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = ScenarioRunner()
    payloads = []
    for preset_name in preset_names:
        for spec in get_preset(preset_name).specs():
            spec = _apply_overrides(spec, args)
            result = runner.run(spec, obs=TraceOptions(timeline=True))
            payload = _bench_payload(preset_name, result)
            payloads.append(payload)
            path = out_dir / f"BENCH_{spec.name}.json"
            path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            print(f"wrote {path}")
    if args.check:
        # A full run (the default preset list) must cover every committed
        # baseline, otherwise the perf gate silently loses a scenario; a
        # --presets subset legitimately skips some, so stale files only warn.
        full_run = preset_names == list(BENCH_PRESETS)
        return _check_baselines(payloads, args, stale_fails=full_run)
    return 0


def _smoke_scenario_names() -> set:
    """Scenario names produced by the scale-smoke presets."""
    from repro.core.presets import get_preset

    return {
        spec.name
        for preset_name in SMOKE_BENCH_PRESETS
        for spec in get_preset(preset_name).specs()
    }


def _check_baselines(payloads: List[dict], args: argparse.Namespace, *, stale_fails: bool) -> int:
    """Compare fresh bench payloads against committed baselines; 1 on drift."""
    from repro.perf.baseline import check_against_baselines

    checks, problems, stale = check_against_baselines(payloads, args.baseline_dir)
    # Scale-smoke baselines are produced by their own CI job, never by the
    # default preset list — a default full run must not treat them as stale.
    smoke_files = {f"BENCH_{name}.json" for name in _smoke_scenario_names()}
    stale = [path for path in stale if Path(path).name not in smoke_files]
    failed = False
    for path in stale:
        if stale_fails:
            failed = True
            print(
                f"FAIL: committed baseline {path} is not covered by any benchmark "
                "preset — remove it or restore its scenario",
                file=sys.stderr,
            )
        else:
            print(
                f"warning: committed baseline {path} was not covered by this run "
                "— remove it or include its preset",
            )
    for problem in problems:
        failed = True
        print(f"FAIL: {problem}", file=sys.stderr)
    for check in checks:
        if check.ok:
            print(f"OK: {check.scenario} within baseline expectations")
        else:
            failed = True
            for failure in check.failures:
                print(f"FAIL [{check.scenario}]: {failure}", file=sys.stderr)
    if failed:
        print(
            "\nbaseline check failed — if the change is intentional, regenerate with\n"
            f"  repro bench --flows <flows> --out-dir {args.baseline_dir}\n"
            "and commit the updated BENCH_*.json files",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.runner import ScenarioRunner
    from repro.perf.report import format_stage_breakdown

    specs = [_apply_overrides(spec, args) for spec in _load_specs(args.scenario)]
    runner = ScenarioRunner()
    snapshots = []
    for index, spec in enumerate(specs):
        result = runner.run(spec, collect_perf=True)
        for name, run in result.runs.items():
            if index or snapshots:
                print()
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
    from repro.core.runner import ScenarioRunner
    from repro.obs.timeline import render_timeline
    from repro.obs.tracer import TraceOptions

    specs = [_apply_overrides(spec, args) for spec in _load_specs(args.scenario)]
    runner = ScenarioRunner()
    obs = TraceOptions(timeline=True, timeline_bucket_seconds=args.bucket_seconds)
    first = True
    for spec in specs:
        result = runner.run(spec, obs=obs)
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
    from repro.core.runner import ScenarioRunner
    from repro.obs.tracer import TraceOptions

    specs = [_apply_overrides(spec, args) for spec in _load_specs(args.scenario)]
    runner = ScenarioRunner()
    obs = TraceOptions(timeline=True)
    first = True
    for spec in specs:
        if not spec.build_network().has_link_capacities():
            raise ReproError(
                f"scenario {spec.name!r} assigns no link capacities — set "
                "'links.uplink_mbps' in the spec or pass --uplink-mbps"
            )
        result = runner.run(spec, obs=obs)
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

    preset_rows = []
    for preset in list_presets():
        specs = preset.specs()
        preset_rows.append([preset.name, len(specs), preset.description])
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


def _add_override_arguments(parser: argparse.ArgumentParser) -> None:
    """Spec-override flags shared by ``run`` and ``bench``."""
    parser.add_argument("--flows", type=int, default=None, help="override total flow count")
    parser.add_argument("--switches", type=int, default=None, help="override switch count")
    parser.add_argument("--hosts", type=int, default=None, help="override host count")
    parser.add_argument("--seed", type=int, default=None, help="override topology/traffic seed")
    parser.add_argument("--duration-hours", type=float, default=None, help="override replay duration")
    parser.add_argument("--systems", default=None, help="comma-separated control-plane names")
    parser.add_argument(
        "--exec",
        dest="exec_spec",
        default=None,
        metavar="SPEC",
        help="override the execution spec as key=value pairs "
        "(workers, shard-strategy, shard-count, stream) or a "
        "JSON object, e.g. --exec workers=4,shard-strategy=time-window",
    )
    parser.add_argument(
        "--traffic",
        default=None,
        help="swap in a registered traffic model by name (see list-traffic-models)",
    )
    parser.add_argument(
        "--topology",
        default=None,
        help="swap in a registered topology shape by name (see list-topologies)",
    )
    parser.add_argument(
        "--churn-rate",
        type=float,
        default=None,
        help="override the VM migration churn rate (migrations per simulated hour; 0 disables)",
    )
    parser.add_argument(
        "--churn-seed", type=int, default=None, help="override the churn RNG seed"
    )
    parser.add_argument(
        "--table-capacity",
        type=int,
        default=None,
        help="cap every switch's flow table at this many rules",
    )
    parser.add_argument(
        "--table-policy",
        default=None,
        help="timeout/eviction policy for the flow tables (see list-table-policies)",
    )
    parser.add_argument(
        "--uplink-mbps",
        type=float,
        default=None,
        help="assign every edge-switch uplink this capacity in Mbps "
        "(enables link-utilization accounting and the queueing latency term)",
    )
    parser.add_argument(
        "--queueing-ms",
        type=float,
        default=None,
        help="M/M/1 service time in ms for the utilization-dependent queueing "
        "delay on capacitated uplinks (0 disables the term)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LazyCtrl reproduction: run declarative control-plane scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run a preset or a JSON scenario spec")
    run.add_argument("scenario", help="preset name or path to a ScenarioSpec JSON file")
    _add_override_arguments(run)
    run.add_argument("--workers", type=int, default=None, help="process fan-out for multi-scenario runs")
    run.add_argument("--out", default=None, help="write results JSON to this path")
    run.add_argument(
        "--events-out",
        default=None,
        help="stream structured trace events to this JSONL file (single-scenario runs)",
    )
    run.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="sampling rate in (0, 1] for high-volume event types in --events-out "
        "(deterministic stride, no RNG; lifecycle events are always written)",
    )
    run.set_defaults(handler=_cmd_run)

    bench = subparsers.add_parser(
        "bench", help="run the benchmark presets and write BENCH_<scenario>.json files"
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
        help="compare the fresh payloads against committed baselines and exit 1 on drift",
    )
    bench.add_argument(
        "--baseline-dir",
        default=DEFAULT_BASELINE_DIR,
        help="directory holding the committed BENCH_*.json baselines",
    )
    _add_override_arguments(bench)
    bench.set_defaults(handler=_cmd_bench)

    profile = subparsers.add_parser(
        "profile", help="replay a scenario with instrumentation and print the stage breakdown"
    )
    profile.add_argument("scenario", help="preset name or path to a ScenarioSpec JSON file")
    _add_override_arguments(profile)
    profile.add_argument("--out", default=None, help="write the perf snapshots JSON to this path")
    profile.set_defaults(handler=_cmd_profile)

    timeline = subparsers.add_parser(
        "timeline", help="replay a scenario and render per-bucket sparkline timelines"
    )
    timeline.add_argument("scenario", help="preset name or path to a ScenarioSpec JSON file")
    _add_override_arguments(timeline)
    timeline.add_argument(
        "--bucket-seconds",
        type=float,
        default=None,
        help="timeline bucket width (defaults to the scenario's result bucket)",
    )
    timeline.set_defaults(handler=_cmd_timeline)

    trace_export = subparsers.add_parser(
        "trace-export",
        help="convert an --events-out JSONL stream into Chrome trace-event JSON (Perfetto)",
    )
    trace_export.add_argument("events", help="events JSONL file written by 'run --events-out'")
    trace_export.add_argument("--out", required=True, help="path for the Chrome trace JSON")
    trace_export.add_argument(
        "--profile",
        default=None,
        help="perf snapshots JSON from 'profile --out' to add per-stage spans",
    )
    trace_export.set_defaults(handler=_cmd_trace_export)

    heatmap = subparsers.add_parser(
        "heatmap",
        help="replay a capacitated scenario and render link-utilization heatmaps + p99s",
    )
    heatmap.add_argument("scenario", help="preset name or path to a ScenarioSpec JSON file")
    _add_override_arguments(heatmap)
    heatmap.add_argument(
        "--threshold",
        type=float,
        default=1.0,
        help="utilization threshold for the hot-links table (fraction of capacity)",
    )
    heatmap.set_defaults(handler=_cmd_heatmap)

    compare = subparsers.add_parser("compare", help="compare runs from a results file or preset")
    compare.add_argument("target", help="results JSON (from 'run --out') or preset name")
    compare.add_argument("--baseline", default=None, help="baseline system name or label")
    compare.set_defaults(handler=_cmd_compare)

    list_cmd = subparsers.add_parser("list-scenarios", help="list presets and registered control planes")
    list_cmd.set_defaults(handler=_cmd_list_scenarios)

    list_traffic = subparsers.add_parser(
        "list-traffic-models", help="list registered traffic models and their params"
    )
    list_traffic.set_defaults(handler=_cmd_list_traffic_models)

    list_topologies = subparsers.add_parser(
        "list-topologies", help="list registered topology shapes and their params"
    )
    list_topologies.set_defaults(handler=_cmd_list_topologies)

    list_tables = subparsers.add_parser(
        "list-table-policies", help="list registered flow-table timeout/eviction policies"
    )
    list_tables.set_defaults(handler=_cmd_list_table_policies)
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
