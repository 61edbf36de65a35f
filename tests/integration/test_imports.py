"""Lazy package exports and the import graph of each entry point.

Each package ``__init__`` names its public names in a ``lazy_exports``
table (``repro._lazy``) instead of importing them, so an entry point loads
only the modules its calls run.  The first class pins the exports: every
``__all__`` name is the object its home module defines, as before.  The
second pins, in fresh interpreters, how many ``repro`` modules three entry
points load and which modules they must not load.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.kinematics",
    "repro.solvers",
    "repro.serving",
    "repro.resilience",
    "repro.telemetry",
    "repro.control",
]

SRC = Path(repro.__file__).resolve().parents[1]


def _init_tree(package: str) -> ast.Module:
    origin = importlib.util.find_spec(package).origin
    return ast.parse(Path(origin).read_text())


def export_table(package: str) -> dict[str, tuple[str, ...]]:
    """The ``lazy_exports`` table of ``package``, read from its source."""
    for node in ast.walk(_init_tree(package)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package}/__init__.py calls no lazy_exports")


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_every_name_is_its_home_modules_object(self, package):
        pkg = importlib.import_module(package)
        table = export_table(package)
        names = [name for names in table.values() for name in names]
        assert len(names) == len(set(names))
        assert set(pkg.__all__) - {"__version__"} == set(names)
        for home, names in table.items():
            for name in names:
                if home == package:
                    expected = importlib.import_module(f"{package}.{name}")
                else:
                    expected = getattr(importlib.import_module(home), name)
                assert getattr(pkg, name) is expected, name

    def test_dir_lists_all(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import_binds_all(self, package):
        pkg = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name), name

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(f"{package!r}")):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")

    def test_init_imports_only_the_helper(self, package):
        imports = [
            ast.unparse(node) for node in ast.walk(_init_tree(package))
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == ["from repro._lazy import lazy_exports"]


#: Modules no entry point below may load: the breadth the solve and serve
#: paths never run, and the standard-library parsers only it needs.
NEVER_LOADED = {
    "repro.kinematics.urdf",
    "repro.kinematics.workspace",
    "repro.kinematics.generic",
    "repro.kinematics.io",
    "repro.telemetry.sinks",
    "repro.serving.loadgen",
    "repro.resilience.faults",
    "repro.resilience.resilient",
    "json",
    "xml.etree",
}

_PROBE = """
import sys
import numpy as np
before = set(sys.modules)
{body}
print(sorted(set(sys.modules) - before))
"""

ENTRY_POINTS = {
    # (body, most repro modules it may load)
    "api-solve-batch": ("""
from repro import api
from repro.execution import ExecutionOptions, KernelSpec
chain = api.resolve_robot("dadu-12dof")
q = chain.random_configuration(np.random.default_rng(1))
api.solve_batch(
    chain, chain.end_position(q)[None], "JT-DLS", seed=1,
    options=ExecutionOptions(kernel=KernelSpec("vectorized", "float64")),
)
""", 31),
    "session-tick": ("""
from repro import api
from repro.execution import ExecutionOptions, KernelSpec
from repro.serving.sessions import SessionManager
options = ExecutionOptions(kernel=KernelSpec("vectorized"), on_error="skip")
with api.serve(options=options) as server:
    chain = server._resolve_chain("dadu-12dof")
    q = chain.random_configuration(np.random.default_rng(1))
    session = SessionManager(server).open("dadu-12dof", q0=q)
    session.tick(chain.end_position(q)).result(timeout=60)
    session.close()
""", 42),
    "cli-help": ("""
import runpy
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
""", 31),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_only_what_it_runs(entry):
    body, ceiling = ENTRY_POINTS[entry]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(ast.literal_eval(probe.stdout.strip().splitlines()[-1]))
    ours = sorted(name for name in loaded if name.split(".")[0] == "repro")
    assert len(ours) <= ceiling, ours
    assert not loaded & NEVER_LOADED, sorted(loaded & NEVER_LOADED)
