"""The committed reachability audit (``scripts/reachability.py``) runs clean.

It drives the CLI surface, the examples and the figure benchmarks under a
profile hook and prints the ``src/repro`` functions nothing reached.  Run
small here: one preset at 500 flows, as a subprocess so its hook sees a fresh
``import repro``.  Its
static half — which functions there are, which count, how the residue is
totalled — is checked in process on small files.
"""

import ast
import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_audit():
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "scripts" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = load_audit()


def test_the_audit_runs_and_reaches_the_forwarding_front_end_and_the_benchmarks():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reachability.py"), "--presets", "paper-fig7", "--flows", "500"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    residue = [line.split()[1] for line in completed.stdout.splitlines() if line.startswith("  ") and ".py:" in line]
    assert residue, "the audit printed no residue at all"
    # The last is reached by the group-size ablation benchmark alone.
    reached = (
        "EdgeSwitch.forward_key",
        "EdgeSwitch.classify_run",
        "EdgeSwitch.apply_run",
        "GroupSizeBargainer.negotiate",
    )
    assert not [name for name in residue if name in reached]


@pytest.mark.parametrize(
    "source, stub",
    [
        ("def f(): ...", True),
        ("def f(): pass", True),
        ('def f():\n    """Only a docstring."""', True),
        ('def f():\n    """A docstring, then an ellipsis."""\n    ...', True),
        ("def f(): raise NotImplementedError", True),
        ("def f(): raise NotImplementedError('subclasses answer')", True),
        ("def f(): return 1", False),
        ("def f(): 3", False),
        ("def f():\n    pass\n    return 1", False),
        ("def f(): raise ValueError('a real check')", False),
    ],
    ids=(
        "ellipsis",
        "pass",
        "docstring",
        "docstring-ellipsis",
        "raise-class",
        "raise-call",
        "return",
        "constant",
        "pass-then-return",
        "raise-other",
    ),
)
def test_a_stub_is_a_declaration_without_a_body(source, stub):
    (node,) = ast.parse(source).body
    assert reachability._is_stub(node) is stub


FUNCTIONS_SOURCE = textwrap.dedent(
    '''\
    import functools

    @functools.lru_cache
    def top():
        def inner():
            return 1
        return inner

    class Outer:
        class Inner:
            def method(self):
                ...

        @staticmethod
        @functools.cache
        def helper():
            return 2
    '''
)


def test_functions_are_named_by_qualname_from_their_first_decorator(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(FUNCTIONS_SOURCE, encoding="utf-8")
    found = reachability.functions(path)
    assert found == [
        ("top", 3, 7, False),
        ("top.<locals>.inner", 5, 6, False),
        ("Outer.Inner.method", 11, 12, True),
        ("Outer.helper", 14, 17, False),
    ]
    # The first line is the one the profiler reports a code object by.
    namespace = {}
    exec(compile(FUNCTIONS_SOURCE, str(path), "exec"), namespace)
    codes = {
        "top": namespace["top"].__wrapped__.__code__,
        "top.<locals>.inner": namespace["top"]().__code__,
        "Outer.Inner.method": namespace["Outer"].Inner.method.__code__,
        "Outer.helper": namespace["Outer"].helper.__wrapped__.__code__,
    }
    assert {name: first for name, first, _, _ in found} == {
        name: code.co_firstlineno for name, code in codes.items()
    }


def test_the_report_counts_a_nested_functions_lines_once(tmp_path, monkeypatch):
    package = tmp_path / "repro"
    (package / "net").mkdir(parents=True)
    (package / "__init__.py").write_text("def hello():\n    return 0\n", encoding="utf-8")
    module = package / "net" / "mod.py"
    module.write_text(
        textwrap.dedent(
            """\
            def outer():
                def inner():
                    return 1
                return inner


            def reached():
                return 2


            def stub():
                ...
            """
        ),
        encoding="utf-8",
    )
    monkeypatch.setattr(reachability, "PACKAGE", package)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        reachability.report({(os.path.realpath(module), 7)}, reachability.Audit())
    lines = out.getvalue().splitlines()
    assert lines[0] == "runs: 0 ok, 0 refused by the planner, 0 failed"
    assert "1 of 4 functions in src/repro reached; 3 unreached, 6 lines" in lines
    assert "net: 2 unreached, 4 lines" in lines
    assert "(top level): 1 unreached, 2 lines" in lines
    residue = [line.split()[:2] for line in lines if line.startswith("  ")]
    assert residue == [
        ["__init__.py:1", "hello"],
        ["net/mod.py:1", "outer"],
        ["net/mod.py:2", "outer.<locals>.inner"],
    ]


def test_runs_are_told_apart_as_ok_refused_or_failed(tmp_path):
    audit = reachability.Audit()
    audit.cli("list-scenarios")
    audit.cli("run", "no-such-preset")
    audit.cli("no-such-command")
    fine, broken = tmp_path / "fine.py", tmp_path / "broken.py"
    fine.write_text("import sys\nassert sys.argv[1:] == ['--flows', '5']\n", encoding="utf-8")
    broken.write_text("raise RuntimeError('example broke')\n", encoding="utf-8")
    argv = list(sys.argv)
    audit.script(fine, ["--flows", "5"])
    audit.script(broken, [])
    assert sys.argv == argv
    assert audit.ok == 2
    assert [line.split(":")[0] for line in audit.refused] == ["repro run no-such-preset"]
    assert audit.failed == [
        "repro no-such-command: SystemExit: 2",
        "examples/broken.py: RuntimeError: example broke",
    ]
