"""The equivalence matrix: every execution shape against one reference.

An exact cell — any kernel, delivery, per-system pool or single window,
traced or not — serializes what the serial, scalar, materialized run
serializes, event text included.  A time-window cell replays each window
against cold state, so it is held to the same plan on one worker, scalar and
materialized; its distance from serial is an approximation, not a defect.  A
cell the planner refuses must raise.  Hypothesis draws cells of the cross product;
the diagonal runs every directed case with what makes it non-vacuous; the
end-state table holds the kernels to every switch's state.
"""

import dataclasses
import functools
import operator
from contextlib import nullcontext
from unittest import mock

import pytest

pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equivalence import (
    CHURN_IDS,
    CHURN_SPECS,
    LINK_SPECS,
    SMALL_TENANTS,
    TABLE_IDS,
    TABLE_SPECS,
    THIN_LINKS,
    Cell,
    build_spec,
    expansion_window,  # noqa: F401  (a fixture)
    fig7,
    outcome,
    plane_state,
    replay_plane,
)
from repro.bandwidth import meter
from repro.churn.spec import ChurnSpec
from repro.common.config import FlowTableConfig
from repro.common.errors import ConfigurationError
from repro.core.presets import default_grouping_config
from repro.core.results import SystemCounters
from repro.core.scenario import FailureInjectionSpec
from repro.traffic import replay

FAILURES = FailureInjectionSpec(at_hours=(1.0, 2.5))
VECTORIZED = "vectorized"
DYNAMIC = ("lazyctrl-dynamic",)


def assert_cell(spec, cell):
    """``cell``'s run of ``spec`` against its reference's; or its refusal.

    A merged run also keeps what holds per shard: no switch's table ever
    held more rules than it has room for."""
    refusal = cell.refusal(spec)
    if refusal is not None:
        with pytest.raises(ConfigurationError, match=refusal):
            outcome(spec, cell)
        return None
    ran = outcome(spec, cell)
    ran.assert_same(outcome(spec, cell.reference))
    every("tables", lambda tables: tables is None or tables["peak_occupancy"] <= tables["capacity"])(spec, ran)
    return ran


# -- the cross product ---------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**16)
#: A churn-free, failure-free spec: what the kernel's array path takes whole.
plain_specs = dict(
    model=st.sampled_from(("realistic", "uniform", "elephant-mice", "incast-hotspot", "mix")),
    flows=st.integers(min_value=200, max_value=900),
    seed=seeds,
    tables=st.sampled_from(TABLE_SPECS),
    links=st.sampled_from(LINK_SPECS),
    expand=st.sampled_from((0.0, 0.3)),
)
specs = st.builds(
    build_spec,
    **plain_specs,
    churn=st.sampled_from((None, *CHURN_SPECS)),
    failures=st.sampled_from((None, FAILURES)),
)
cells = st.builds(
    Cell,
    kernel=st.sampled_from(("scalar", VECTORIZED)),
    delivery=st.sampled_from(("columns", "stream", "records")),
    shard=st.sampled_from(("system", "time-window")),
    workers=st.sampled_from((1, 2)),
    windows=st.sampled_from((1, 2, 4)),
    timeline=st.booleans(),
    events=st.booleans(),
    perf=st.booleans(),
).filter(lambda cell: cell.delivery != "records" or (cell.shard, cell.workers) == ("system", 1))

drawn = functools.partial(
    settings,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    print_blob=True,
)


@drawn(max_examples=18)
@given(spec=specs, cell=cells)
def test_every_cell_matches_its_reference(expansion_window, spec, cell):  # noqa: F811
    assert_cell(spec, cell)


# Two corners of the cross product that it draws too rarely to hold on its own:
# failures or an event listener send a run to scalar, and a record list needs one worker.


@drawn(max_examples=10)
@given(spec=st.builds(build_spec, **plain_specs))
def test_vectorized_kernel_matches_scalar(expansion_window, spec):  # noqa: F811
    assert_cell(spec, Cell(kernel=VECTORIZED))


#: Long enough a day for the incast burst (hours 1–3).
three_hours = functools.partial(build_spec, flows=600, trace_hours=3.0, hours=3.0, bucket_hours=1.0)


@drawn(max_examples=8)
@given(
    spec=st.builds(
        three_hours,
        model=st.sampled_from(("realistic", "incast-hotspot", "mix")),
        seed=seeds,
        tables=st.sampled_from((None, FlowTableConfig(policy="lru").resized(8))),
        systems=st.just(("openflow", *DYNAMIC)),
    )
)
def test_kernel_fed_records_equal_kernel_fed_columns(spec):
    columns, records = (
        outcome(spec, Cell(kernel=VECTORIZED, delivery=delivery, timeline=True)) for delivery in ("columns", "records")
    )
    columns.assert_same(records)


# -- the diagonal --------------------------------------------------------------------------


def every(path, holds=bool):
    """A check: ``holds`` for each run's value at a dotted path (a list: its sum).
    A ``perf.`` path reads the run's perf counters."""

    def check(spec, ran):
        for name, run in ran.runs.items():
            if path.startswith("perf."):
                value = ran.result.runs[name].perf.counters.get(path[len("perf."):], 0)
            else:
                value = functools.reduce(operator.getitem, path.split("."), run)
            assert holds(sum(value) if isinstance(value, list) else value), (name, path)

    return check


def pooled(workers):
    def check(spec, ran):
        assert (ran.result.shards["workers"], ran.result.shards["pooled"]) == (workers, True)

    return check


def flows(runs):
    return {name: run["counters"]["flows_handled"] + run["counters"]["departed_flows"] for name, run in runs.items()}


def conserves_flows(spec, ran):
    """Windows see exactly their own flows: together, the serial replay's."""
    assert flows(ran.runs) == flows(outcome(spec).runs)


def meter_had_work(spec, ran):
    """Congestion, crossings of 1.0, and flows that straddle a 2 s window."""
    every("counters.congested_flows")(spec, ran)
    every("timeline.counts.link_congested")(spec, ran)
    every("links.utilization", lambda matrix: any(value >= 1.0 for row in matrix.values() for value in row))(spec, ran)
    records = spec.build_trace(spec.build_network()).flows
    crossing = [flow for flow in records if int(flow.start_time / 2.0) != int((flow.start_time + flow.duration) / 2.0)]
    assert 0 < len(crossing) < len(records)


#: ``paper-fig7-expanded`` at its default 20 000 base flows, as read from the
#: record-born expansion its stream replaced (commit 271255e):
#: requests, updates per hour, and the non-zero counters.
EXPANDED_PINS = {
    "openflow": (17810, [0.0] * 24, dict(flows_handled=26000, local_flows=5940, controller_requests=17529)),
    "lazyctrl-static": (5701, [0.0] * 24, dict(
        flows_handled=26000, local_flows=5940, intra_group_flows=14166, inter_group_flows=5701, controller_requests=5701
    )),
    "lazyctrl-dynamic": (5224, [1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0,
                                1.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 2.0], dict(
        flows_handled=26000, local_flows=5940, intra_group_flows=14722, inter_group_flows=5224, controller_requests=5224
    )),
}


def pinned(spec, ran):
    for name, (requests, updates, counters) in EXPANDED_PINS.items():
        run = ran.runs[name]
        assert (run["total_controller_requests"], run["updates_per_hour"]) == (requests, updates)
        assert run["counters"] == dataclasses.asdict(SystemCounters(**counters))


#: ``table-pressure`` at test scale: streamed flows against 16-entry tables.
PRESSURE = fig7(flows=4_000, tables=FlowTableConfig(
    capacity=16, eviction_batch=16, policy="idle-hard-hybrid", idle_timeout_seconds=1800.0, hard_timeout_seconds=7200.0
))
#: Two systems on thin uplinks (and 2 s link windows): the meter's bulk pass.
METERED = build_spec(model="incast-hotspot", flows=1500, seed=29, links=THIN_LINKS, systems=("openflow", *DYNAMIC))


def born(system, variant):
    """Uniform flows on small tenants, each tenant spanning two switches."""
    return build_spec(
        model="uniform", flows=900, seed=12, trace_hours=4.0, bucket_hours=1.0, topology=SMALL_TENANTS,
        systems=(system,), config=default_grouping_config(8),
        links=THIN_LINKS if "links" in variant else None,
        tables=FlowTableConfig(policy="lru").resized(2) if "tables" in variant else None,
        churn=ChurnSpec(seed=3, migration_rate_per_hour=40.0, drift_rate_per_hour=6.0) if "churn" in variant else None,
        failures=FAILURES if variant == "failures" else None,
    )


def born_checks(system, variant):
    dynamic = system == "lazyctrl-dynamic"
    return [
        lambda spec, ran: flows(ran.runs) == {system: 900},
        *([every("churn.migrations"), every("churn.drift_events")] if "churn" in variant and dynamic else []),
        *([every("failover_events", lambda events: events == 2)] if variant == "failures" and dynamic else []),
        *([every("tables.evictions")] if "tables" in variant else []),
        *([every("counters.congested_flows")] if "links" in variant else []),
        *([lambda spec, ran: ran.events] if "events" in variant else []),
    ]


def row(id, spec, cell, *checks, meter_window=None, window=True, batch=None):
    """``batch``: kernel batches of that many flows, so rules are resident when batches start."""
    return pytest.param(spec, cell, checks, meter_window, window, batch, id=id)


def churned():
    shapes = {"serial": {}, "streamed": {"delivery": "stream"}, "system-sharded": {"shard": "system", "workers": 2}}
    for churn, churn_id in zip(CHURN_SPECS, CHURN_IDS):
        departures = [every("counters.departed_flows")] if churn.tenant_departure_rate_per_hour else []
        for shape, fields in shapes.items():
            yield row(
                f"kernel-churn-{churn_id}-{shape}", build_spec(churn=churn, flows=1500, seed=5),
                Cell(kernel=VECTORIZED, timeline=True, perf=True, **fields),
                every("churn.per_bucket_events"), every("perf.kernel.flows_vectorized"), *departures,
            )


def ruled(tables, **fields):
    """Elephant pairs that re-hit their rules; groups of three switches give
    LazyCtrl inter-group rules too."""
    return build_spec(model="elephant-mice", flows=3000, seed=17, group_size_limit=3, tables=tables, **fields)


def perf_counter(system, name):
    return lambda spec, ran: ran.result.runs[system].perf.counters.get(f"kernel.{name}", 0)


def heads_inside_segments(spec, ran):
    """A rule that hard-expires inside a segment: the flow after it is walked as a head of its own."""
    counters = ran.result.runs["openflow"].perf.counters
    assert counters["kernel.flows_fallback"] > counters["kernel.segments"] > 0


#: Ticks inside kernel batches: a tick fires in the ordered walk, a rule's run
#: is cut where its timer can fire, a regrouping tick ends the batch.
WALKED = Cell(kernel=VECTORIZED, perf=True)
TICKS_IN_BATCHES = [
    row("ticks-idle-below-the-tick", ruled(FlowTableConfig(policy="static-idle", idle_timeout_seconds=30.0)), WALKED,
        every("perf.kernel.segments"), every("perf.kernel.ticks_walked"), every("tables.idle_timeouts")),
    row("ticks-static-hard-expiry-inside-segments",
        ruled(FlowTableConfig(policy="static-hard", hard_timeout_seconds=600.0)), WALKED,
        every("tables.hard_timeouts"), heads_inside_segments),
    row("ticks-hybrid-hard-expiry-inside-segments", ruled(FlowTableConfig(
        policy="idle-hard-hybrid", idle_timeout_seconds=900.0, hard_timeout_seconds=900.0)), WALKED,
        every("tables.hard_timeouts"), heads_inside_segments),
    row("ticks-lru-rules-never-age", ruled(TABLE_SPECS[3]), WALKED, perf_counter("openflow", "segments"), batch=256),
    row("ticks-adaptive-walks-every-rule-flow", ruled(TABLE_SPECS[4]), WALKED,
        perf_counter("openflow", "fallback_rule_may_expire"), batch=256),
    row("ticks-regroup-ends-the-batch", ruled(FlowTableConfig(policy="static-idle", idle_timeout_seconds=30.0),
                                              systems=DYNAMIC), WALKED,
        every("perf.kernel.batch_stops"), every("updates_per_hour"), every("perf.kernel.segments")),
    row("ticks-eviction-guard", ruled(FlowTableConfig(policy="static-idle", idle_timeout_seconds=900.0).resized(8)),
        WALKED, perf_counter("openflow", "fallback_eviction_guard"),
        lambda spec, ran: ran.runs["openflow"]["tables"]["evictions"], batch=256),
    row("ticks-static-churn-reports-in-the-walk",
        build_spec(churn=CHURN_SPECS[0], flows=1500, seed=5, group_size_limit=3, systems=("lazyctrl-static",)), WALKED,
        every("perf.kernel.ticks_walked"), every("churn.migrations"), every("counters.inter_group_flows")),
    row("ticks-failures-cut-at-every-tick", build_spec(flows=1500, seed=5, failures=FAILURES, systems=DYNAMIC), WALKED,
        every("failover_events", lambda events: events == 2), every("perf.kernel.batches"),
        every("perf.kernel.ticks_walked", lambda ticks: ticks == 0)),
]


def windowed():
    for shape, expand in (("fig7", 0.0), ("fig7-expanded", 0.3)):
        spec = fig7(systems=DYNAMIC, expand=expand)
        yield row(f"time-window-4-workers-{shape}", spec,
                  Cell(delivery="stream", shard="time-window", workers=4, timeline=True))
        yield row(f"time-window-2-workers-{shape}", spec, Cell(delivery="stream", shard="time-window", workers=2),
                  conserves_flows)
        yield row(f"time-window-single-window-{shape}", spec, Cell(delivery="stream", shard="time-window", windows=1))


DIAGONAL = [
    row("kernel-timeline", build_spec(flows=500, seed=13), Cell(kernel=VECTORIZED, timeline=True)),
    row("kernel-timeline-expanded", build_spec(flows=500, seed=13, expand=0.3), Cell(kernel=VECTORIZED, timeline=True)),
    row("kernel-tiny-tables-fall-back", build_spec(tables=TABLE_SPECS[3], flows=500, seed=3),
        Cell(kernel=VECTORIZED, perf=True),
        lambda spec, ran: ran.result.runs["openflow"].perf.counters["kernel.flows_fallback"]),
    *churned(),
    row("kernel-churn-events", build_spec(churn=CHURN_SPECS[1], flows=600, seed=5),
        Cell(kernel=VECTORIZED, events=True), lambda spec, ran: any('"churn"' in line for line in ran.events)),
    row("kernel-system-pool", build_spec(flows=600, seed=11), Cell(kernel=VECTORIZED, shard="system", workers=2)),
    row("kernel-system-pool-expanded", build_spec(flows=600, seed=11, expand=0.3),
        Cell(kernel=VECTORIZED, shard="system", workers=2)),
    row("kernel-time-window", build_spec(flows=600, seed=11), Cell(kernel=VECTORIZED, shard="time-window", workers=2)),
    row("kernel-time-window-streamed-expanded", build_spec(flows=600, seed=11, expand=0.3),
        Cell(kernel=VECTORIZED, delivery="stream", shard="time-window", workers=2)),
    row("time-window-tiny-tables", build_spec(tables=TABLE_SPECS[3], seed=11, trace_hours=4.0, systems=("openflow",)),
        Cell(shard="time-window", workers=2), every("tables.peak_occupancy", lambda peak: peak == 4)),
    row("kernel-metered-columns", METERED, Cell(kernel=VECTORIZED, timeline=True, perf=True), meter_had_work,
        every("perf.kernel.ticks_walked", lambda ticks: ticks == 0), meter_window=2.0),  # traced: a cut per tick
    *TICKS_IN_BATCHES,
    row("kernel-metered-records", METERED, Cell(kernel=VECTORIZED, delivery="records", timeline=True, perf=True),
        meter_had_work, every("perf.kernel.flows_metered"), every("perf.kernel.flows_vectorized"), meter_window=2.0),
    row("system-pool-fig7", fig7(), Cell(shard="system", workers=4, timeline=True), pooled(4)),
    row("system-pool-fig7-expanded", fig7(expand=0.3), Cell(shard="system", workers=4, timeline=True), pooled(4)),
    row("system-pool-table-pressure", PRESSURE, Cell(delivery="stream", shard="system", workers=4, timeline=True),
        pooled(4), every("tables")),
    row("system-pool-failover", build_spec("failover", flows=2_000), Cell(shard="system", workers=2), pooled(2),
        lambda spec, ran: ran.runs["lazyctrl-dynamic"]["failover_events"] == 2, window=False),
    *windowed(),
    row("refused-time-window-churn", fig7(churn=ChurnSpec(seed=7, migration_rate_per_hour=5.0)),
        Cell(shard="time-window", workers=2)),
    row("refused-time-window-failures", fig7(failures=FailureInjectionSpec(at_hours=(2.0,))),
        Cell(shard="time-window", workers=2)),
    row("refused-time-window-events", fig7(systems=("openflow",)),
        Cell(delivery="stream", shard="time-window", workers=2, events=True)),
    row("stream-paper-fig7", build_spec("paper-fig7", flows=2_500), Cell(delivery="stream"), window=False),
    row("stream-paper-fig7-expanded", build_spec("paper-fig7-expanded", flows=20_000), Cell(delivery="stream"),
        pinned, window=False),
    *(
        row(f"records-{system}-{variant}", born(system, variant),
            Cell(delivery="records", timeline=True, events="events" in variant), *born_checks(system, variant),
            meter_window=10.0)
        for system in ("openflow", "lazyctrl-dynamic")
        for variant in ("churn", "failures", "tables", "links", "events", "churn-tables-links-events")
    ),
]


@pytest.mark.parametrize("spec, cell, checks, meter_window, window, batch", DIAGONAL)
def test_diagonal(request, spec, cell, checks, meter_window, window, batch):
    if window:
        request.getfixturevalue("expansion_window")
    with (
        mock.patch.object(meter, "WINDOW_SECONDS", meter_window) if meter_window else nullcontext(),
        mock.patch.object(replay, "KERNEL_BATCH_FLOWS", batch) if batch else nullcontext(),
    ):
        ran = assert_cell(spec, cell)
        for check in checks:
            verdict = check(spec, ran)  # a check asserts itself (None) or returns what must be truthy
            assert verdict is None or verdict


# -- end state: every switch, not just the result --------------------------------------------

IDLE_300 = FlowTableConfig(policy="static-idle", idle_timeout_seconds=300.0).resized(64)
END_STATES = [
    *(
        pytest.param({"tables": tables, "links": links, "flows": 12_000}, system,
                     id=f"{table_id}-{'metered' if links else 'unmetered'}-{system}")
        for tables, table_id in zip((*TABLE_SPECS[:4], IDLE_300), (*TABLE_IDS[:4], "idle300-cap64"))
        for links in LINK_SPECS
        for system in ("openflow", "lazyctrl-dynamic")
    ),
    *(
        pytest.param({"churn": churn, "flows": 6_000}, system, id=f"{churn_id}-{system}")
        for churn, churn_id in zip(CHURN_SPECS, CHURN_IDS)
        for system in ("openflow", "lazyctrl-dynamic")
    ),
]


@pytest.mark.parametrize("fields, system", END_STATES)
def test_kernels_leave_every_switch_in_the_same_state(fields, system):
    """Stopped mid-schedule, between sweeps, rules still resident.  Elephant
    pairs re-hit their rules, groups of three switches give LazyCtrl local,
    intra- and inter-group flows, and under churn the batch between two
    events is the kernel's unit: the hosts end where scalar put them."""
    spec = build_spec(model="elephant-mice", seed=17, group_size_limit=3, **fields)
    scalar, vectorized = (
        plane_state(replay_plane(spec, system, kernel=kernel, end=10_000.0)[1], 10_000.0)
        for kernel in ("scalar", VECTORIZED)
    )
    assert scalar == vectorized
    if spec.churn is None:
        assert any(switch["table"][0] for switch in scalar["switches"])
    else:
        assert scalar["placement"] != {host.host_id: host.switch_id for host in spec.build_network().hosts()}
