"""Shared fixtures for the benchmark harness.

Every table and figure of the paper's evaluation has a corresponding
benchmark module here.  The fixtures build a scaled-down replica of the
paper's setup — the published trace spans 272 switches and 6509 hosts with
hundreds of millions of flows; the default benchmark scale keeps the same
*shape* (number of groups, tenant sizes, locality, diurnal profile) at a few
tens of switches and tens of thousands of flows so the whole suite finishes
in a few minutes.  Set the environment variable ``REPRO_BENCH_SCALE`` to a
larger value (e.g. ``0.5`` or ``1.0``) to run closer to paper scale.

Run with::

    pytest benchmarks/ --benchmark-only -s

The ``-s`` flag shows the regenerated table/figure rows.
"""

from __future__ import annotations

import os

import pytest

from repro.common.config import GroupingConfig, LazyCtrlConfig
from repro.core.runner import ScenarioRunner
from repro.topology.builder import build_paper_real_topology
from repro.traffic.expand import expand_trace
from repro.traffic.realistic import RealisticTraceGenerator, RealisticTraceProfile
from repro.traffic.synthetic import SyntheticTraceGenerator

#: Fraction of the paper's real-deployment size used by default.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

#: Flow count of the scaled "real" trace (the paper's real trace has 271 M flows).
BENCH_FLOWS = int(os.environ.get("REPRO_BENCH_FLOWS", "40000"))

SEED = 2015


def bench_config(network) -> LazyCtrlConfig:
    """A LazyCtrl configuration whose group-size limit matches the paper's ratio.

    The paper's deployment ends up with groups of roughly 46 switches out of
    272 (about 6 groups); the same ratio is kept at benchmark scale.
    """
    limit = max(4, round(network.switch_count() / 6))
    return LazyCtrlConfig(grouping=GroupingConfig(group_size_limit=limit, random_seed=SEED))


@pytest.fixture(scope="session")
def real_topology():
    """A scaled replica of the paper's production data center (272 sw / 6509 hosts)."""
    return build_paper_real_topology(scale=BENCH_SCALE, seed=SEED)


@pytest.fixture(scope="session")
def real_trace(real_topology):
    """The scaled day-long 'real' trace."""
    generator = RealisticTraceGenerator(
        real_topology, RealisticTraceProfile(total_flows=BENCH_FLOWS, seed=SEED)
    )
    return generator.generate(name="Real")


@pytest.fixture(scope="session")
def expanded_trace(real_trace):
    """The real trace expanded with 30 % extra flows in hours 8-24 (paper §V-D)."""
    return expand_trace(
        real_trace, extra_fraction=0.30, window_start_hour=8.0, window_end_hour=24.0, seed=SEED
    ).materialize()


@pytest.fixture(scope="session")
def synthetic_traces(real_topology, real_trace):
    """The three Table II synthetic traces (Syn-A/B/C), scaled."""
    generator = SyntheticTraceGenerator(real_topology, payload_trace=real_trace)
    return generator.generate_paper_suite(total_flows=BENCH_FLOWS // 2, seed=SEED)


@pytest.fixture(scope="session")
def day_long_results(real_trace, expanded_trace, real_topology):
    """Runs of the Fig. 7/8/9 experiment on the real and expanded traces.

    Computed once per session and shared by the Fig. 7, Fig. 8 and Fig. 9
    benchmarks (exactly as one prototype run backs all three figures in the
    paper).  Each run replays a pre-built trace under the default
    :class:`~repro.core.scenario.ScheduleSpec` (1 h warm-up, 24 h, 2 h
    buckets).  The traces are built here rather than from a spec because
    the realistic generator seeds its draws from the trace name ("Real").
    """
    config = bench_config(real_topology)
    runner = ScenarioRunner()
    runs = (
        ("OpenFlow", "openflow", real_trace),
        ("LazyCtrl (real, static)", "lazyctrl-static", real_trace),
        ("LazyCtrl (real, dynamic)", "lazyctrl-dynamic", real_trace),
        ("LazyCtrl (expanded, static)", "lazyctrl-static", expanded_trace),
        ("LazyCtrl (expanded, dynamic)", "lazyctrl-dynamic", expanded_trace),
    )
    return {
        label: runner.replay_system(system, trace, config=config, label=label)
        for label, system, trace in runs
    }
