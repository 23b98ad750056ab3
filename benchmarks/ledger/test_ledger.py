"""Smoke test of the ledger harness on 2 000-flow versions of the five workloads.

Timings are never asserted on, only their presence: what is checked is that
every metric ``BENCHMARK.json`` names is produced with its unit, that the
output checks pass on healthy runs, and that a damaged ``result.json`` is
counted as a failed operation instead of contributing a timing.
"""

import copy
import dataclasses
import json
import re

import pytest

import child
import harness
import run
import workloads

FLOWS = 2_000
SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

MANIFEST = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name):
    """The workload at 2 000 flows and a tenth of the housekeeping ticks and
    churn events, which do not shrink with the flow count."""
    spec = workloads.with_flows(workloads.build(name, SEED), FLOWS)
    schedule = dataclasses.replace(spec.schedule, periodic_interval_seconds=1200.0)
    churn = spec.churn
    if churn is not None:
        churn = dataclasses.replace(
            churn,
            migration_rate_per_hour=churn.migration_rate_per_hour / 10,
            drift_rate_per_hour=churn.drift_rate_per_hour / 10,
        )
    return dataclasses.replace(spec, schedule=schedule, churn=churn)


def test_manifest_names_what_the_harness_measures():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    for entry in MANIFEST["workloads"]:
        assert entry["why"] == workloads.why(entry["name"])
        assert len(entry["why"]) <= 200
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(harness.END_TO_END)
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == list(child.PER_LAYER)
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]] + list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert child.EXACT_REPEAT <= {name for name, _, _ in child.PER_LAYER}
    assert MANIFEST["paths"] == ["benchmarks/ledger"]


def test_seed_reaches_every_seed_field():
    spec = workloads.build("churn-regroup", 31)
    assert spec.topology.params["seed"] == 31
    assert spec.traffic.params["seed"] == 31
    assert spec.traffic.expand_seed == 31
    assert spec.churn.seed == 31
    assert spec.config.grouping.random_seed == 31
    assert workloads.build("churn-regroup", 31) == spec
    assert workloads.build("churn-regroup", 32) != spec


def test_pinned_digests_cover_every_system():
    for name in workloads.WORKLOADS:
        spec = workloads.build(name)
        pinned = harness.load_expected(name)
        assert pinned["seed"] == workloads.DEFAULT_SEED
        assert pinned["flows"] == spec.traffic.total_flows
        assert set(pinned["systems"]) == set(spec.systems)


# The CLI-child path does not branch on the workload (the traced test below
# drives every workload through ``setup_calls`` and both runs in-process), so
# one serial and one pooled workload cover it.
@pytest.mark.parametrize("name", ["incast-links", "sharded-stream"])
def test_end_to_end_metrics(name, tmp_path):
    spec = tiny(name)
    report = harness.WorkloadReport(name, SEED, FLOWS, list(spec.systems))
    harness.measure_end_to_end(report, spec, tmp_path, repeats=1, setup_repeats=1)
    assert report.failures == []
    assert (report.ops_attempted, report.ops_failed) == (len(spec.systems), 0)
    for metric, unit in harness.END_TO_END:
        stats = report.end_to_end[metric]
        assert stats["unit"] == unit and stats["n"] == 1 and stats["median"] > 0
    result = json.loads(run.result_line(report, traced=False))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {metric for metric, _ in harness.END_TO_END}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics(name, tmp_path, monkeypatch):
    spec = tiny(name)
    spec_path = tmp_path / f"{name}.json"
    spec.save(spec_path)
    # The micro-benchmarks do not depend on the workload: run them once, briefly.
    with_micro = name == "fig7-scalar"
    monkeypatch.setattr(child, "MICRO_TARGET_SECONDS", 0.002)
    payload = child.trace(str(spec_path), micro=with_micro)
    micro = {metric for metric, unit, _ in child.PER_LAYER if unit in ("ns", "ms")}
    expected = {metric for metric, _, _ in child.PER_LAYER} - {"cli.import_s"}
    assert len(micro) == 9
    assert set(payload["metrics"]) == (expected if with_micro else expected - micro)
    assert all(isinstance(value, (int, float)) for value in payload["metrics"].values())
    for result_name in ("trace-result.json", "trace-result-traced.json"):
        assert harness.check_result(spec, tmp_path / result_name, 0, None) == []
    assert {span["workload"] for span in payload["spans"]} == {name}
    assert all(span["end"] >= span["start"] for span in payload["spans"])
    ids = {span["id"] for span in payload["spans"]}
    assert all(span["parent"] is None or span["parent"] in ids for span in payload["spans"])
    assert set(payload["per_system"]) == set(spec.systems)


def test_damaged_result_is_a_failed_operation_not_a_timing(tmp_path, monkeypatch):
    spec = tiny("incast-links")
    good = tmp_path / "good.json"
    spec_path = tmp_path / "incast-links.json"
    spec.save(spec_path)
    assert harness.run_child(harness.cli_argv(spec_path, good), tmp_path).returncode == 0
    assert harness.check_result(spec, good, 0, None) == []

    payload = json.loads(good.read_text())
    pinned = copy.deepcopy(
        {"systems": {system: harness.digest(run_) for system, run_ in payload["runs"].items()}}
    )
    assert harness.check_result(spec, good, 0, pinned) == []

    payload["runs"]["openflow"]["counters"]["controller_requests"] += 1
    drifted = tmp_path / "drifted.json"
    drifted.write_text(json.dumps(payload))
    (failure,) = harness.check_result(spec, drifted, 0, pinned)
    assert "openflow" in failure and "counters.controller_requests" in failure

    payload["runs"]["openflow"]["counters"]["flows_handled"] -= 1
    del payload["runs"]["lazyctrl-dynamic"]
    lossy = tmp_path / "lossy.json"
    lossy.write_text(json.dumps(payload))
    assert len(harness.check_result(spec, lossy, 0, None)) == 2

    truncated = tmp_path / "truncated.json"
    truncated.write_text(good.read_text()[:200])
    assert len(harness.check_result(spec, truncated, 0, None)) == len(spec.systems)
    assert len(harness.check_result(spec, good, 3, None)) == len(spec.systems)

    # Through the measuring loop, with a child that "succeeds" without writing
    # a result: both operations fail, no timing is kept and the driver's
    # result line is withheld.
    monkeypatch.setattr(harness, "run_child", lambda argv, workdir: harness.ChildRun(0, 1.0, 1.0, 1.0))
    report = harness.WorkloadReport("incast-links", SEED, FLOWS, list(spec.systems))
    harness.measure_end_to_end(report, spec, tmp_path, repeats=1, setup_repeats=0)
    assert (report.ops_attempted, report.ops_failed) == (2, 2) and "wall_s" not in report.end_to_end
    assert run.result_line(report, traced=False) is None


def test_work_directory_is_inside_the_checkout_and_removed():
    with harness.work_directory() as workdir:
        assert workdir.is_dir() and harness.REPO_ROOT in workdir.parents
    assert not workdir.exists()


def test_compare_verdicts(tmp_path, capsys):
    def sample_set(wall, exact=5):
        stats = {"median": wall, "min": wall * 0.99, "max": wall * 1.01}
        return {
            "workloads": {
                "fig7-scalar": {
                    "end_to_end": {metric: dict(stats) for metric, _ in harness.END_TO_END},
                    "per_layer": {"controlplane.requests": {"value": exact, "unit": "count"}},
                }
            }
        }

    paths = {}
    for label, payload in {
        "a": sample_set(1.0), "same": sample_set(1.01), "slow": sample_set(2.0), "drift": sample_set(1.0, exact=6),
    }.items():
        paths[label] = tmp_path / f"{label}.json"
        paths[label].write_text(json.dumps(payload))
    assert run.compare(str(paths["a"]), str(paths["same"])) == 0
    assert "worse" not in capsys.readouterr().out
    assert run.compare(str(paths["a"]), str(paths["slow"])) == 1
    assert "worse" in capsys.readouterr().out
    assert run.compare(str(paths["a"]), str(paths["drift"])) == 1
    assert "must repeat exactly" in capsys.readouterr().out
