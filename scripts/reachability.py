#!/usr/bin/env python
"""Reachability audit: which functions of ``src/repro`` does nothing run?

Drives the whole command-line surface and the figure benchmarks in this
process with a profile hook that is installed *before* ``repro`` is imported
(so import-time calls, the registry decorators among them, count), then
walks ``src/repro`` with ``ast`` and prints every function whose code never
ran, by package, with line totals:

    python scripts/reachability.py                                  # every preset
    python scripts/reachability.py --presets paper-fig7 --flows 500

What runs, all in process with ``workers=1`` (so no code hides in a pool):

* every selected preset under four execution shapes: scalar,
  ``kernel=vectorized``, ``stream=true`` and a two-window time-window plan.
  A shape the planner refuses (a ``ConfigurationError``) is skipped;
* every subcommand once, on the first single-scenario preset selected:
  ``run --events-out --out``, ``run`` on ``examples/traffic_mix.json``,
  ``profile --out``, ``timeline``, ``heatmap``, ``trace-export``,
  ``compare``, ``diff`` (of that results file with itself), ``bench``
  (then ``bench --check`` against what it just wrote) and the four
  ``list-*`` commands;
* every ``examples/*.py`` through :mod:`runpy`, the scale demos at
  ``--flows``;
* every figure benchmark, ``benchmarks/test_*.py``, through ``pytest.main``
  with ``--benchmark-disable`` (pytest-benchmark's timing loop would hide
  the timed call from the hook) at ``REPRO_BENCH_SCALE=0.05`` and
  ``REPRO_BENCH_FLOWS=4000``.  The ledger's probes under
  ``benchmarks/ledger/`` are *not* driven, so anything they call is in the
  residue and must stay.

The hook is a plain ``sys.setprofile`` function, not :mod:`cProfile`:
calls made under ``pytest.main`` never reached a ``cProfile`` profiler.

The residue is an upper bound on dead code: a function that only a test, a
forked worker, a ledger probe or an unlisted flag reaches is in it.
Declarations without a body (``...``, ``pass``, ``raise NotImplementedError``)
are not counted.  Standard library only, plus pytest and pytest-benchmark
for the figure benchmarks.  Exits 1 when a run fails for any reason other
than a planner refusal.
"""

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: The figure benchmarks' scale: small enough for a few seconds per module.
BENCH_ENV = {"REPRO_BENCH_SCALE": "0.05", "REPRO_BENCH_FLOWS": "4000"}

#: ``--exec`` of the four execution shapes every preset is run under.
SHAPES = (
    "workers=1",
    "kernel=vectorized,workers=1",
    "stream=true,workers=1",
    "shard-strategy=time-window,shard-count=2,stream=true,workers=1",
)


class Audit:
    """The runs made so far: which succeeded, were refused, or failed."""

    def __init__(self) -> None:
        self.ok = 0
        self.refused = []
        self.failed = []

    def cli(self, *argv: str) -> None:
        """One ``repro`` command through its handler, so refusals can be told apart."""
        from repro.cli import build_parser
        from repro.common.errors import ConfigurationError

        label = "repro " + " ".join(argv)
        try:
            with _quiet():
                args = build_parser().parse_args(list(argv))
                code = args.handler(args)
        except ConfigurationError as error:
            self.refused.append(f"{label}: {error}")
            return
        except (Exception, SystemExit) as error:
            self.failed.append(f"{label}: {type(error).__name__}: {error}")
            return
        if code:
            self.failed.append(f"{label}: exit {code}")
        else:
            self.ok += 1

    def script(self, path: Path, argv) -> None:
        """One example, run as ``__main__``."""
        label = " ".join([f"examples/{path.name}", *argv])
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            with _quiet():
                runpy.run_path(str(path), run_name="__main__")
        except (Exception, SystemExit) as error:
            self.failed.append(f"{label}: {type(error).__name__}: {error}")
        else:
            self.ok += 1
        finally:
            sys.argv = saved

    def benchmarks(self, paths) -> None:
        """The figure benchmarks, one ``pytest`` session, timing loop off."""
        import pytest

        label = "pytest benchmarks/test_*.py"
        try:
            with _quiet():
                code = pytest.main(
                    [*map(str, paths), "-q", "--benchmark-disable", "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
                )
        except (Exception, SystemExit) as error:
            self.failed.append(f"{label}: {type(error).__name__}: {error}")
            return
        if code:
            self.failed.append(f"{label}: exit {int(code)}")
        else:
            self.ok += 1


@contextlib.contextmanager
def _quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def drive(audit: Audit, presets, flows: int, scratch: Path) -> None:
    """Every preset × shape, every subcommand, every example, every figure benchmark."""
    from repro.cli import main
    from repro.core.presets import get_preset

    size = ("--flows", str(flows))
    for preset in presets:
        for shape in SHAPES:
            audit.cli("run", preset, *size, "--workers", "1", "--exec", shape)

    single = next((name for name in presets if len(get_preset(name).specs()) == 1), None)
    if single is not None:
        one = (single, *size, "--exec", "workers=1")
        events, result, perf = scratch / "events.jsonl", scratch / "result.json", scratch / "perf.json"
        audit.cli("run", *one, "--events-out", str(events), "--out", str(result))
        audit.cli("profile", *one, "--out", str(perf))
        audit.cli("timeline", *one)
        audit.cli("heatmap", *one, "--uplink-mbps", "1")
        audit.cli("trace-export", str(events), "--out", str(scratch / "trace.json"), "--profile", str(perf))
        audit.cli("compare", str(result))
        audit.cli("diff", str(result), str(result))
        bench = ("bench", "--presets", single, *size, "--exec", "workers=1")
        audit.cli(*bench, "--out-dir", str(scratch / "bench"))
        audit.cli(*bench, "--out-dir", str(scratch / "recheck"), "--check", "--baseline-dir", str(scratch / "bench"))
    audit.cli("run", str(ROOT / "examples" / "traffic_mix.json"), *size, "--workers", "1", "--exec", "workers=1")
    for command in ("list-scenarios", "list-traffic-models", "list-topologies", "list-table-policies"):
        with _quiet():
            code = main([command])
        if code:
            audit.failed.append(f"repro {command}: exit {code}")
        else:
            audit.ok += 1

    for path in sorted((ROOT / "examples").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        argv = []
        if '"--flows"' in source:
            argv += ["--flows", str(flows)]
        if '"--workers"' in source:
            argv += ["--workers", "1"]
        audit.script(path, argv)

    audit.benchmarks(sorted((ROOT / "benchmarks").glob("test_*.py")))


# -- the static side: every function under src/repro ----------------------------


def _is_stub(node) -> bool:
    """A declaration with no body: ``...``, ``pass`` or ``raise NotImplementedError``."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(
        body[0].value.value, str
    ):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    (statement,) = body
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


def functions(path: Path):
    """``(qualname, first line, last line, is_stub)`` of every function in ``path``.

    The first line is the first decorator's, which is what a code object's
    ``co_firstlineno`` holds.
    """

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
                yield name, first, child.end_lineno, _is_stub(child)
                yield from visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    return list(visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), ""))


def report(reached, audit: Audit) -> None:
    """Print the runs' outcome and the unreached functions by package."""
    totals = defaultdict(int)
    residue = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        package = relative.parts[0] if len(relative.parts) > 1 else "(top level)"
        for name, first, last, stub in functions(path):
            if stub:
                continue
            totals[package] += 1
            if (os.path.realpath(path), first) not in reached:
                residue[package].append((relative.as_posix(), name, first, last))
    # A nested function's lines are its parent's too: count each line once.
    lines = {
        package: len({(where, line) for where, _, first, last in found for line in range(first, last + 1)})
        for package, found in residue.items()
    }

    print(f"runs: {audit.ok} ok, {len(audit.refused)} refused by the planner, {len(audit.failed)} failed")
    for line in audit.refused:
        print(f"  refused  {line}")
    for line in audit.failed:
        print(f"  FAILED   {line}")
    total, unreached = sum(totals.values()), sum(map(len, residue.values()))
    print(
        f"\n{total - unreached} of {total} functions in src/repro reached; "
        f"{unreached} unreached, {sum(lines.values())} lines\n"
    )
    print(f"{'package':<16}{'functions':>10}{'unreached':>11}{'lines':>8}")
    for package in sorted(totals):
        print(f"{package:<16}{totals[package]:>10}{len(residue.get(package, ())):>11}{lines.get(package, 0):>8}")
    for package in sorted(residue):
        print(f"\n{package}: {len(residue[package])} unreached, {lines[package]} lines")
        for where, name, first, last in residue[package]:
            print(f"  {where}:{first}  {name}  ({last - first + 1} lines)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--presets", default=None, help="comma-separated presets (default: every preset)")
    parser.add_argument("--flows", type=int, default=2000, help="flows per replayed scenario (default 2000)")
    args = parser.parse_args(argv)

    # The hook goes in before the first ``repro`` import: module bodies and
    # the registry decorators they run count as reached.
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    os.environ.update(BENCH_ENV)
    sys.path.insert(0, str(PACKAGE.parent))
    audit = Audit()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        from repro.core.presets import list_presets

        presets = args.presets.split(",") if args.presets else [preset.name for preset in list_presets()]
        with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
            drive(audit, presets, args.flows, Path(scratch))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
    report(reached, audit)
    return 1 if audit.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
