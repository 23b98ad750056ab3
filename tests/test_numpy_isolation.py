"""numpy stays off the scalar import path — checked in fresh interpreters.

``setup.py`` promises a checkout without numpy imports and runs everything
scalar, and the benchmark's ``fig7-scalar`` workload is the *bypass* for every
kernel change precisely because ``repro.kernel`` and numpy are never imported
there.  Both hang on the traffic layer (chunks included) being stdlib-only,
so each claim is driven through the CLI in a subprocess, where ``sys.modules``
reflects what that one run imported and nothing else.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = ["run", "paper-fig7", "--flows", "2000"]


def _cli(argv, *, prelude=""):
    """Run ``repro.cli.main(argv)`` in a child; returns (exit code, stdout, stderr).

    The child prints the offending modules it finds in ``sys.modules`` after
    the command as its last stdout line.
    """
    script = (
        "import sys\n"
        f"{prelude}\n"
        "from repro.cli import main\n"
        f"code = main({argv!r})\n"
        "loaded = [name for name in ('numpy', 'repro.kernel', 'repro.kernel.columnar',\n"
        "                            'repro.kernel.realistic')\n"
        "          if sys.modules.get(name) is not None]\n"
        "print('LOADED', loaded)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    return done.returncode, done.stdout, done.stderr


def test_scalar_cli_run_imports_neither_numpy_nor_the_kernel():
    code, out, err = _cli(RUN)
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "LOADED []"


def test_streamed_scalar_cli_run_imports_neither_numpy_nor_the_kernel():
    """The streamed path drains FlowChunks directly — still stdlib only."""
    code, out, err = _cli(RUN + ["--exec", "stream=true"])
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "LOADED []"


#: ``sys.modules[name] = None`` makes ``import name`` raise ImportError and
#: ``importlib.util.find_spec(name)`` return None: numpy as good as absent.
_HIDE_NUMPY = "sys.modules['numpy'] = None"


def test_without_numpy_the_scalar_run_still_passes():
    code, out, err = _cli(RUN, prelude=_HIDE_NUMPY)
    assert code == 0, err
    assert out.strip().splitlines()[-1] == "LOADED []"


def test_without_numpy_the_vectorized_kernel_is_a_configuration_error():
    code, _, err = _cli(RUN + ["--exec", "kernel=vectorized"], prelude=_HIDE_NUMPY)
    assert code == 2
    assert err.startswith("error: ") and "requires numpy" in err
    assert "Traceback" not in err and "ImportError" not in err
