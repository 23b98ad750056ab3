"""The parent half of the ledger: spawn one child at a time, measure it, check it.

End-to-end numbers come from running the real CLI (``python -m repro run
spec.json --out result.json``) in a fresh child process, closed loop: the next
child starts only after the previous one has been reaped.  ``wall_s`` is
measured here from spawn to exit; ``cpu_s`` and ``peak_rss_mb`` come from the
``rusage`` the kernel hands back when the child is reaped, which covers the
child and every descendant it waited for (the shard pool).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
EXPECTED_DIR = LEDGER_DIR / "expected"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

import child  # noqa: E402  (sibling module; needs no repro import at load)
import workloads  # noqa: E402  (needs src/ on the path)

#: ``(name, unit)`` of the end-to-end metrics; all are lower-is-better and
#: their regression bounds live in ``BENCHMARK.json``.
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

#: A child that has not exited by then is killed and its operations fail.
CHILD_TIMEOUT_SECONDS = 150.0

#: Flow count of the discarded warm-up run: enough to import every module the
#: workload uses (numpy and the kernel included) and fill the bytecode and
#: page caches, without paying for a full replay.
WARMUP_FLOWS = 2_000


@dataclass(frozen=True)
class ChildRun:
    """One reaped child: exit code and what it cost."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr_tail: str = ""


def child_env() -> Dict[str, str]:
    """The child's environment: the parent's, with ``src/`` importable."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + inherited if inherited else "")
    return env


def run_child(argv: Sequence[str], workdir: Path) -> ChildRun:
    """Run ``argv`` to completion in its own session and reap it with ``wait4``."""
    with open(workdir / "child.out", "wb") as out, open(workdir / "child.err", "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(
            list(argv), env=child_env(), cwd=REPO_ROOT, stdout=out, stderr=err,
            start_new_session=True,
        )
        # The child leads its own process group, so a hung run (or its shard
        # pool) can be killed whole.
        watchdog = threading.Timer(CHILD_TIMEOUT_SECONDS, _kill_group, args=(proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - started
        # Already reaped: tell Popen so it never waits on a recycled pid.
        proc.returncode = os.waitstatus_to_exitcode(status)
    tail = ""
    if proc.returncode != 0:
        tail = (workdir / "child.err").read_text(encoding="utf-8", errors="replace")[-600:].strip()
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr_tail=tail,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@contextmanager
def work_directory() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed on exit."""
    base = REPO_ROOT / ".ledger_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run's scratch is still in there


# -- output checks ------------------------------------------------------------------


def digest(run: Dict[str, Any]) -> Dict[str, Any]:
    """What ``expected/<workload>.json`` pins for one system of ``result.json``."""
    return {
        "counters": run["counters"],
        "total_controller_requests": run["total_controller_requests"],
        "tables": run.get("tables"),
        "overall_mean_ms": run["latency"]["overall_mean_ms"],
    }


def first_difference(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """The first leaf at which two digests differ, as ``path: expected != actual``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(expected.keys() | actual.keys()):
            difference = first_difference(
                expected.get(key), actual.get(key), f"{path}.{key}" if path else key
            )
            if difference:
                return difference
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def load_expected(workload: str) -> Optional[Dict[str, Any]]:
    """The pinned digests of ``workload`` (``None`` when never written)."""
    path = EXPECTED_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check_result(spec, result_path: Path, returncode: int, expected: Optional[Dict[str, Any]]) -> List[str]:
    """Failures of one run, one entry per failed (workload, system) operation.

    ``expected`` is the pinned digest file's content, or ``None`` to check
    only conservation (``flows_handled + departed_flows`` = the spec's flows).
    """
    systems = list(spec.systems)
    if returncode != 0:
        return [f"{system}: child exited with code {returncode}" for system in systems]
    try:
        runs = json.loads(result_path.read_text(encoding="utf-8"))["runs"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        return [f"{system}: unreadable result file ({error.__class__.__name__}: {error})" for system in systems]
    failures = []
    flows = spec.traffic.total_flows
    for system in systems:
        run = runs.get(system) if isinstance(runs, dict) else None
        if run is None:
            failures.append(f"{system}: missing from the result file")
            continue
        try:
            replayed = run["counters"]["flows_handled"] + run["counters"]["departed_flows"]
            found = digest(run)
        except (KeyError, TypeError) as error:
            failures.append(f"{system}: malformed run ({error.__class__.__name__}: {error})")
            continue
        if replayed != flows:
            failures.append(f"{system}: handled + departed = {replayed}, spec has {flows} flows")
        elif expected is not None:
            difference = first_difference(expected["systems"].get(system), found)
            if difference:
                failures.append(f"{system}: differs from the pinned digest at {difference}")
    return failures


# -- measuring one workload -----------------------------------------------------------


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, min, max and count: with a handful of samples no other percentile holds."""
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }


@dataclass
class WorkloadReport:
    """Everything measured for one workload."""

    workload: str
    seed: int
    flows: int
    systems: List[str]
    end_to_end: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    ops_attempted: int = 0
    ops_failed: int = 0
    failures: List[str] = field(default_factory=list)
    per_layer: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    per_system: Dict[str, Dict[str, float]] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {key: value for key, value in self.__dict__.items() if key != "spans"}


def cli_argv(spec_path: Path, result_path: Path) -> List[str]:
    return [sys.executable, "-m", "repro", "run", str(spec_path), "--out", str(result_path)]


def warm_up(spec, workdir: Path) -> None:
    """The discarded warm-up run: ``spec`` at ``WARMUP_FLOWS`` through the CLI."""
    warm_path = workdir / "warmup.json"
    workloads.with_flows(spec, WARMUP_FLOWS).save(warm_path)
    run_child(cli_argv(warm_path, workdir / "warmup-result.json"), workdir)


def measure_end_to_end(
    report: WorkloadReport,
    spec,
    workdir: Path,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    setup_repeats: int = 3,
    expected: Optional[Dict[str, Any]] = None,
) -> None:
    """Timed CLI runs (``repeats`` of them, or as many as start within
    ``seconds``, at least two) and ``setup_repeats`` set-up-only runs, tracing off."""
    spec_path = workdir / f"{report.workload}.json"
    result_path = workdir / "result.json"
    spec.save(spec_path)

    samples: Dict[str, List[float]] = {name: [] for name, _ in END_TO_END}
    started = perf_counter()
    attempts = 0

    def another_run() -> bool:
        if repeats is not None:
            return attempts < repeats
        # Never fewer than two, so that one slow run cannot be the whole sample.
        return attempts < 2 or perf_counter() - started < seconds

    while another_run():
        attempts += 1
        result_path.unlink(missing_ok=True)
        run = run_child(cli_argv(spec_path, result_path), workdir)
        failures = check_result(spec, result_path, run.returncode, expected)
        report.ops_attempted += len(spec.systems)
        report.ops_failed += len(failures)
        report.failures.extend(f"run {attempts}: {failure}" for failure in failures)
        if run.stderr_tail:
            report.failures.append(f"run {attempts} stderr: {run.stderr_tail}")
        if not failures:
            samples["wall_s"].append(run.wall_s)
            samples["cpu_s"].append(run.cpu_s)
            samples["peak_rss_mb"].append(run.peak_rss_mb)

    for attempt in range(setup_repeats):
        run = run_child([sys.executable, str(LEDGER_DIR / "child.py"), "setup", str(spec_path)], workdir)
        if run.returncode == 0:
            samples["setup_s"].append(run.wall_s)
        else:
            report.failures.append(f"setup {attempt + 1}: exit {run.returncode}: {run.stderr_tail}")

    for name, unit in END_TO_END:
        if samples[name]:
            report.end_to_end[name] = {"unit": unit, **summarize(samples[name])}


def measure_import(workdir: Path, repeats: int = 5) -> float:
    """Median wall of a fresh ``python -c "import repro.cli"``."""
    walls = []
    for _ in range(repeats):
        run = run_child([sys.executable, "-c", "import repro.cli"], workdir)
        if run.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {run.stderr_tail}")
        walls.append(run.wall_s)
    return statistics.median(walls)


def measure_layers(
    report: WorkloadReport, spec, workdir: Path, import_s: float, expected: Optional[Dict[str, Any]] = None
) -> None:
    """One traced child: per-layer metrics and spans of ``spec``."""
    spec_path = workdir / f"{report.workload}.json"
    out_path = workdir / "trace.json"
    spec.save(spec_path)
    run = run_child(
        [sys.executable, str(LEDGER_DIR / "child.py"), "trace", str(spec_path), str(out_path)], workdir
    )
    # The child replays every system twice (untraced, then traced) and saves
    # both results; each is checked like a CLI run's.
    for result_name in ("trace-result.json", "trace-result-traced.json"):
        failures = check_result(spec, workdir / result_name, run.returncode, expected)
        report.ops_attempted += len(spec.systems)
        report.ops_failed += len(failures)
        report.failures.extend(f"{result_name}: {failure}" for failure in failures)
    if run.stderr_tail:
        report.failures.append(f"trace stderr: {run.stderr_tail}")
    if report.ops_failed:
        return
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    values = {"cli.import_s": import_s, **payload["metrics"]}
    report.per_layer = {
        name: {"value": values[name], "unit": unit} for name, unit, _ in child.PER_LAYER
    }
    report.per_system = payload["per_system"]
    report.spans = payload["spans"]


def measure_workload(
    name: str,
    seed: int,
    *,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    setup_repeats: int = 3,
    end_to_end: bool = True,
    layers: bool = False,
) -> WorkloadReport:
    """Measure one workload: end-to-end with tracing off, per-layer in a
    separate traced child.  Only the default seed has a pinned digest; any
    other seed is checked for conservation alone."""
    spec = workloads.build(name, seed)
    expected = load_expected(name) if seed == workloads.DEFAULT_SEED else None
    report = WorkloadReport(
        workload=name, seed=seed, flows=spec.traffic.total_flows, systems=list(spec.systems)
    )
    with work_directory() as workdir:
        warm_up(spec, workdir)
        if end_to_end:
            measure_end_to_end(
                report, spec, workdir,
                repeats=repeats, seconds=seconds, setup_repeats=setup_repeats, expected=expected,
            )
        if layers:
            measure_layers(report, spec, workdir, measure_import(workdir), expected)
    return report


def write_expected(name: str) -> Path:
    """Run ``name`` once on the default seed and pin its per-system digests."""
    spec = workloads.build(name, workloads.DEFAULT_SEED)
    with work_directory() as workdir:
        spec_path = workdir / f"{name}.json"
        result_path = workdir / "result.json"
        spec.save(spec_path)
        run = run_child(cli_argv(spec_path, result_path), workdir)
        failures = check_result(spec, result_path, run.returncode, None)
        if failures:
            raise RuntimeError(f"{name}: refusing to pin a failed run: {failures} {run.stderr_tail}")
        runs = json.loads(result_path.read_text(encoding="utf-8"))["runs"]
    EXPECTED_DIR.mkdir(exist_ok=True)
    target = EXPECTED_DIR / f"{name}.json"
    payload = {
        "workload": name,
        "seed": workloads.DEFAULT_SEED,
        "flows": spec.traffic.total_flows,
        "systems": {system: digest(runs[system]) for system in spec.systems},
    }
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target
