"""The kernel reads no one's internals.

``repro.kernel`` is batch arithmetic over decisions its owners make: what a
run of packets does is the switch's, what it costs the plane's, how a table
or a G-FIB memo ages theirs.  That only stays true while the kernel talks to
them through public names, so this walks the package's syntax trees and
fails on any ``_private`` attribute of an object other than ``self``/``cls``
and on any ``from ... import _private``.
"""

import ast
from pathlib import Path

import repro.kernel

KERNEL_SOURCES = sorted(Path(repro.kernel.__file__).parent.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def boundary_breaches(path: Path) -> list[str]:
    breaches = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id in ("self", "cls")):
                breaches.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if is_private(alias.name):
                    breaches.append(
                        f"{path.name}:{node.lineno}: from {node.module} import {alias.name}"
                    )
    return breaches


def test_kernel_sources_were_found():
    assert {path.name for path in KERNEL_SOURCES} >= {"__init__.py", "columnar.py"}


def test_kernel_reads_no_private_name_of_another_object():
    breaches = [breach for path in KERNEL_SOURCES for breach in boundary_breaches(path)]
    assert not breaches, "\n".join(breaches)


def test_the_walk_sees_what_it_should(tmp_path):
    """The checker itself: private reads and imports are caught, own state is not."""
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from a import _b\n"
        "from importlib import util as _util\n"
        "class K:\n"
        "    def f(self, table):\n"
        "        self._memo = table._rules\n"
        "        return self._memo, table.__class__, _util.find_spec\n"
    )
    assert boundary_breaches(sample) == [
        "sample.py:1: from a import _b",
        "sample.py:5: table._rules",
    ]
