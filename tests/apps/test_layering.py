"""Apps compose the node, shell and Split-C layers through their public
methods: no module under ``src/repro/apps/`` reads a private (``_name``)
attribute of another object.  ``self._x`` on the module's own classes
is allowed; dunders are not private."""

from __future__ import annotations

import ast
from pathlib import Path

import repro.apps

APPS = Path(repro.apps.__file__).parent


def _private_reads(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self")):
            found.append(f"{path.name}:{node.lineno} "
                         f".{node.attr}")
    return found


def test_apps_read_no_private_attribute_of_another_object():
    modules = sorted(APPS.rglob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in _private_reads(path)]
    assert offenders == []


def test_the_check_sees_a_private_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(ms):\n    return ms.write_buffer._pending\n")
    assert len(_private_reads(probe)) == 1
