"""Replay a multi-million-flow day in bounded memory with the streaming pipeline.

The materialized path holds every flow up front — 48 bytes of columns each,
half a gigabyte at 10 M flows, and gigabytes once somebody asks for the
``FlowRecord`` list — while the streaming path generates and drains the trace
chunk by chunk, so peak memory stays flat regardless of trace length.  This script
runs the ``paper-fig7-10m`` preset (scaled down by default so it finishes in
seconds; pass ``--flows 10000000`` for the real thing) and reports the
replay outcome next to the process's peak resident memory.

Run from the repository root::

    python examples/bounded_memory_10m.py                      # 1M flows, ~30 s
    python examples/bounded_memory_10m.py --flows 10000000     # the full 10M smoke
"""

from __future__ import annotations

import argparse
import dataclasses
import time

from repro.core.presets import get_preset
from repro.core.runner import ScenarioRunner
from repro.perf.recorder import peak_rss_bytes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--flows",
        type=int,
        default=1_000_000,
        help="trace length (default 1M; the committed CI smoke uses 10M)",
    )
    args = parser.parse_args()

    (spec,) = get_preset("paper-fig7-10m").specs()
    spec = dataclasses.replace(spec, traffic=spec.traffic.with_params(total_flows=args.flows))
    assert spec.stream, "the preset selects the chunked streaming path"

    print(f"streaming {args.flows:,} flows through {spec.systems[0]} ...")
    started = time.perf_counter()
    result = ScenarioRunner().run(spec)
    elapsed = time.perf_counter() - started

    run = result.runs[spec.systems[0]]
    print(f"  replayed flows        : {run.counters.flows_handled:,}")
    print(f"  controller requests   : {run.total_controller_requests:,}")
    print(f"  grouping updates      : {sum(run.updates_per_hour):.0f}")
    print(f"  wall clock            : {elapsed:,.1f} s "
          f"({run.counters.flows_handled / elapsed:,.0f} flows/s)")
    print(f"  peak resident memory  : {peak_rss_bytes() / 1e6:,.0f} MB")
    print()
    print("A materialized run of the same length would hold every flow in memory")
    print("at once (48 bytes of columns each before replay even starts, ~230 more")
    print("as a FlowRecord); the streamed replay's footprint is bounded by one chunk.")


if __name__ == "__main__":
    main()
