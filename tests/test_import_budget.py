"""Start-up imports what a command uses — checked in fresh interpreters.

Every package resolves its re-exports on first access and the CLI imports
each subcommand's modules inside its handler, so what a run loads depends
on the command and the spec.  Like ``tests/test_numpy_isolation.py``, each
claim runs the CLI in a subprocess and reads ``sys.modules`` after the
command; the budgets pin module *sets*, never times.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = ["run", "paper-fig7", "--flows", "2000"]

#: What a serial, untraced, churn-free run without link capacities never needs.
NOT_ON_THE_RUN_PATH = (
    "repro.churn",
    "repro.analysis",
    "repro.obs.events",
    "repro.obs.export",
    "repro.obs.timeline",
    "repro.core.latency_eval",
    "repro.perf.baseline",
    "repro.traffic.mix",
    "repro.traffic.expand",
    "multiprocessing",
)

#: ``repro.*`` modules that run loads (it loaded 96 when every package
#: imported all of its modules up front).
RUN_MODULE_BUDGET = 72

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.bandwidth",
    "repro.churn",
    "repro.common",
    "repro.controlplane",
    "repro.core",
    "repro.dataplane",
    "repro.datastructures",
    "repro.failover",
    "repro.kernel",
    "repro.negotiation",
    "repro.obs",
    "repro.partitioning",
    "repro.perf",
    "repro.replay",
    "repro.simulation",
    "repro.tables",
    "repro.topology",
    "repro.traffic",
)


def _modules_after(argv):
    """Run ``repro.cli.main(argv)`` in a child; returns (exit code, modules it loaded, stderr)."""
    script = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as done:\n"
        "    code = done.code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, set(json.loads(done.stdout.strip().splitlines()[-1])), done.stderr


def _repro(modules):
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


def _loaded(modules, prefix):
    return sorted(name for name in modules if name == prefix or name.startswith(prefix + "."))


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["heatmap", "--help"]])
def test_help_imports_only_the_cli(argv):
    code, modules, err = _modules_after(argv)
    assert code == 0, err
    assert _repro(modules) == {"repro", "repro.cli"}


@pytest.fixture(scope="module")
def serial_run():
    code, modules, err = _modules_after(RUN)
    assert code == 0, err
    return modules


@pytest.mark.parametrize("prefix", NOT_ON_THE_RUN_PATH)
def test_serial_untraced_run_never_imports(serial_run, prefix):
    assert _loaded(serial_run, prefix) == []


def test_serial_untraced_run_stays_within_its_module_budget(serial_run):
    assert len(_repro(serial_run)) <= RUN_MODULE_BUDGET, sorted(_repro(serial_run))


def test_traced_run_imports_the_event_classes(tmp_path):
    code, modules, err = _modules_after(RUN + ["--events-out", str(tmp_path / "events.jsonl")])
    assert code == 0, err
    assert "repro.obs.events" in modules


def test_churn_run_imports_the_churn_subsystem():
    code, modules, err = _modules_after(["run", "churn-migration", "--flows", "2000"])
    assert code == 0, err
    assert "repro.churn" in modules and "repro.churn.scheduler" in modules


@pytest.mark.parametrize("stream", [False, True], ids=["materialized", "streamed"])
def test_a_pooled_vectorized_run_imports_the_kernel_before_forking(stream):
    """The parent imports what every shard needs, so no worker imports numpy again.

    A realistic trace, streamed or materialized, is drawn by
    ``repro.kernel.realistic``.
    """
    pytest.importorskip("numpy")
    code, modules, err = _modules_after(
        RUN
        + ["--switches", "8", "--hosts", "60", "--systems", "lazyctrl-dynamic"]
        + ["--exec", f"workers=2,shard-strategy=time-window,shard-count=2,kernel=vectorized,stream={stream}"]
    )
    assert code == 0, err
    assert {"numpy", "repro.kernel.columnar", "multiprocessing"} <= modules
    assert "repro.kernel.realistic" in modules


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    assert set(module.__all__) <= set(dir(module))


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.core.Nope  # noqa: B018
