"""Apps and the Split-C runtime compose the node and shell layers
through their public methods.

No module under ``src/repro/apps/`` reads a private (``_name``)
attribute of another object.  Modules under ``src/repro/splitc/`` read
only the private names that splitc's own classes define.  ``self._x``
is always allowed; dunders are not private."""

from __future__ import annotations

import ast
from pathlib import Path

import repro.apps
import repro.splitc

APPS = Path(repro.apps.__file__).parent
SPLITC = Path(repro.splitc.__file__).parent

#: Private names of splitc's own classes that other splitc modules use.
SPLITC_OWN = {"_setup_annex", "_full_addr", "_pending_blt", "_inbox"}


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


def _defined_names(root: Path) -> set[str]:
    """Methods and ``self.<name> = ...`` attributes defined under
    ``root``."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                names.add(node.attr)
    return names


def test_apps_read_no_private_attribute_of_another_object():
    modules = sorted(APPS.rglob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in _private_reads(path)]
    assert offenders == []


def test_splitc_reads_only_its_own_private_names():
    assert SPLITC_OWN <= _defined_names(SPLITC)
    modules = sorted(SPLITC.rglob("*.py"))
    assert modules
    offenders = [hit for path in modules for hit in _private_reads(path)
                 if hit.rsplit(".", 1)[1] not in SPLITC_OWN]
    assert offenders == []


def test_the_check_sees_a_private_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(ms):\n    return ms.write_buffer._pending\n")
    assert len(_private_reads(probe)) == 1
