"""Every console-script module imports with only the declared dependencies.

The package declares one runtime dependency, numpy.  A module that
imports anything else at import time breaks every ``sp2-*`` entry point
on a clean install, even when the developer's environment happens to
have it.  The check runs in a fresh interpreter whose import system
refuses every top-level module that is not stdlib, ``numpy`` or
``repro``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

#: The modules behind ``[project.scripts]`` in pyproject.toml.
ENTRY_MODULES = (
    "repro.cli",
    "repro.ops_cli",
    "repro.trace_cli",
    "repro.fleet_cli",
    "repro.sweep_cli",
)

_ROOT = pathlib.Path(__file__).resolve().parents[2]

_PROBE = textwrap.dedent(
    """
    import sys

    ALLOWED = {"numpy", "repro"}

    class BlockUndeclared:
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            if top in ALLOWED or top in sys.stdlib_module_names:
                return None
            raise ModuleNotFoundError(f"blocked undeclared module {name!r}", name=name)

    sys.meta_path.insert(0, BlockUndeclared())
    import importlib
    for module in sys.argv[1:]:
        assert callable(importlib.import_module(module).main), module
    """
)


def test_entry_points_import_with_only_declared_dependencies():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *ENTRY_MODULES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_entry_module_list_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert sorted(v.split(":")[0] for v in scripts.values()) == sorted(ENTRY_MODULES)
