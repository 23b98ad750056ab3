#!/usr/bin/env python3
"""The repo benchmark: five command-to-result workloads and a stage ledger.

Two ways in, one measurement underneath (see README.md beside this file):

* the benchmark driver's form, one workload per call::

      python3 benchmarks/ledger/run.py --workload fig7-scalar --seed 7 --seconds 10 --trace 0

  ``--trace 0`` measures the end-to-end metrics with tracing off, ``--trace 1``
  runs only the traced child and reports the per-layer metrics; the last line
  of standard output is the result object the driver reads;

* the developer's form, every workload (or ``--workloads a,b``)::

      python3 benchmarks/ledger/run.py [--seed 2015] [--repeats 5] [--trace] [--out FILE]
      python3 benchmarks/ledger/run.py --compare A.json B.json
      python3 benchmarks/ledger/run.py --write-expected

Exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

try:
    import harness
    import workloads
    from child import EXACT_REPEAT, PER_LAYER
except ImportError as error:  # no src/ beside the benchmark: nothing to measure
    sys.exit(f"error: cannot import the program under test ({error})")

#: What the paper reports, printed beside the simulated ``sim.*`` ratios.  The
#: paper replays a 272-switch production trace; these workloads are scaled
#: replicas, so the difference is stated, not gated.
PAPER_REFERENCE = {
    "sim.ctrl_reduction": "paper: 0.61-0.82 controller-workload reduction (Fig. 7)",
    "sim.latency_reduction": "paper: ~0.10 lower mean forwarding latency (Fig. 9)",
}


def load_bounds() -> Dict[str, float]:
    """Regression bound of every end-to-end metric, from ``BENCHMARK.json``."""
    manifest = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in manifest["end_to_end"]}


# -- printing ------------------------------------------------------------------------


def print_report(report: harness.WorkloadReport) -> None:
    print(
        f"workload {report.workload}  seed {report.seed}  "
        f"{report.flows} flows x {len(report.systems)} systems ({', '.join(report.systems)})"
    )
    for name, stats in report.end_to_end.items():
        print(
            f"  {name:<14} {stats['median']:>10.4f} {stats['unit']:<3} "
            f"median of {stats['n']} (min {stats['min']:.4f}, max {stats['max']:.4f})"
        )
    wall = report.end_to_end.get("wall_s")
    if wall:
        rate = report.flows * len(report.systems) / wall["median"]
        print(f"  flows x systems / wall_s = {rate:,.0f} flows/s")
    for name, entry in report.per_layer.items():
        note = f"   {PAPER_REFERENCE[name]}" if name in PAPER_REFERENCE else ""
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}{note}")
    for system, stages in report.per_system.items():
        cells = "  ".join(f"{stage}={seconds:.3f}" for stage, seconds in stages.items())
        print(f"    {system}: {cells}")
    if report.spans:
        print(f"  spans recorded: {len(report.spans)}")
    print(f"  ops_attempted {report.ops_attempted}  ops_failed {report.ops_failed}")
    for failure in report.failures:
        print(f"  FAILED {failure}")


def result_line(report: harness.WorkloadReport, traced: bool) -> Optional[str]:
    """The driver's result object, or ``None`` when a metric could not be measured."""
    if traced:
        metrics = {name: dict(entry) for name, entry in report.per_layer.items()}
        complete = len(metrics) == len(PER_LAYER)
    else:
        metrics = {
            name: {"value": stats["median"], "unit": stats["unit"]}
            for name, stats in report.end_to_end.items()
        }
        complete = len(metrics) == len(harness.END_TO_END)
    if not complete:
        return None
    return json.dumps(
        {
            "correct": report.ops_failed == 0,
            "attempted": report.ops_attempted,
            "failed": report.ops_failed,
            "metrics": metrics,
        }
    )


# -- --compare -------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians, delta, bound, verdict.

    ``worse`` when B's median exceeds A's by more than the bound and every B
    sample lies above every A sample; ``unresolved`` when it exceeds the bound
    but the two min-max ranges overlap.  Exact-repeat per-layer metrics
    present in both files must be identical.
    """
    sets = [json.loads(Path(path).read_text(encoding="utf-8"))["workloads"] for path in (path_a, path_b)]
    bounds = load_bounds()
    status = 0
    print(f"{'workload':<16} {'metric':<12} {'A median':>10} {'B median':>10} {'delta':>8} {'bound':>6}  verdict")
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        for name, _ in harness.END_TO_END:
            a = sets[0][workload]["end_to_end"].get(name)
            b = sets[1][workload]["end_to_end"].get(name)
            if a is None or b is None:
                print(f"{workload:<16} {name:<12} missing from one set")
                status = 1
                continue
            delta = (b["median"] - a["median"]) / a["median"]
            if delta <= bounds[name]:
                verdict = "ok"
            elif b["min"] <= a["max"]:
                verdict = "unresolved"
            else:
                verdict = "worse"
                status = 1
            print(
                f"{workload:<16} {name:<12} {a['median']:>10.4f} {b['median']:>10.4f} "
                f"{delta:>+8.1%} {bounds[name]:>6.0%}  {verdict}"
            )
        layers_a = sets[0][workload].get("per_layer", {})
        layers_b = sets[1][workload].get("per_layer", {})
        for name in sorted(EXACT_REPEAT & layers_a.keys() & layers_b.keys()):
            if layers_a[name]["value"] != layers_b[name]["value"]:
                print(
                    f"{workload:<16} {name} must repeat exactly: "
                    f"{layers_a[name]['value']!r} != {layers_b[name]['value']!r}"
                )
                status = 1
    return status


# -- main ------------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS), help="one workload, driver form")
    parser.add_argument("--workloads", help="comma-separated workload names (default: all five)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5, help="timed runs per workload")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="start timed runs for this long instead of counting --repeats",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="also run the traced child (with --workload: run only it)",
    )
    parser.add_argument("--out", help="write every sample, metric and span to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-expected", action="store_true", help="re-pin expected/*.json on the default seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if args.workload:
        names = [args.workload]
    elif args.workloads:
        names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    else:
        names = list(workloads.WORKLOADS)

    if args.write_expected:
        for name in names:
            print(f"pinned {harness.write_expected(name)}")
        return 0

    driver_form = args.workload is not None
    repeats = None if args.seconds is not None else args.repeats
    reports = []
    for name in names:
        report = harness.measure_workload(
            name,
            args.seed,
            repeats=repeats,
            seconds=args.seconds,
            # Three set-up children in the time-boxed form: enough for a median.
            setup_repeats=3 if repeats is None else repeats,
            end_to_end=not (driver_form and args.trace),
            layers=bool(args.trace),
        )
        print_report(report)
        reports.append(report)

    if args.out:
        payload: Dict[str, Any] = {
            "seed": args.seed,
            "workloads": {report.workload: report.to_dict() for report in reports},
            "spans": [span for report in reports for span in report.spans],
        }
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"written {args.out}")

    failed = sum(report.ops_failed for report in reports)
    attempted = sum(report.ops_attempted for report in reports)
    incomplete = False
    if driver_form:
        line = result_line(reports[0], traced=bool(args.trace))
        incomplete = line is None
        if line is not None:
            print(line)
    else:
        print(f"total ops_attempted {attempted}  ops_failed {failed}")
    return 1 if failed or incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
