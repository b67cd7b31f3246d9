"""What each entry point imports, and the lazy package exports behind it.

The orchestration packages (``repro``, ``repro.api``, ``repro.sweep``,
``repro.studies``, ``repro.obs``) resolve their exported names on first
access (:mod:`repro._exports`), and ``repro.backends`` its distributed
ones, so a single run, a study's monitors, a process-pool sweep and the
CLI parser each import only what they use.  Every check runs in a
fresh interpreter: the test process itself has imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import List

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Packages whose exports resolve on first access, each with the
#: exports it binds at import instead.
LAZY_PACKAGES = {
    "repro": (),
    "repro.api": (),
    "repro.sweep": (),
    "repro.studies": (),
    "repro.obs": (),
    "repro.backends": (
        "BACKEND_NAMES",
        "ExecutionBackend",
        "ProcessBackend",
        "SerialBackend",
        "StartFn",
        "get_backend",
    ),
}

ALL_PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
)


def _fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter with only ``src`` on the path;
    return the JSON it prints on its last line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(code: str) -> List[str]:
    """The ``repro`` modules loaded once ``code`` has run."""
    return _fresh(
        textwrap.dedent(code)
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )


def _hits(loaded: List[str], forbidden) -> List[str]:
    """Loaded modules that are, or sit inside, a forbidden module."""
    return [m for m in loaded if any(m == f or m.startswith(f + ".") for f in forbidden)]


class TestImportGraph:
    def test_single_run_loads_only_the_model(self):
        loaded = _loaded_after(
            """
            from repro.config import DvsConfig, RunConfig, TrafficConfig
            from repro.runner import SimulationRun

            SimulationRun(RunConfig(
                benchmark="ipfwdr",
                duration_cycles=400_000,
                seed=7,
                traffic=TrafficConfig.for_scenario("overnight_trough"),
                dvs=DvsConfig(policy="tdvs"),
            ))
            """
        )
        assert "repro.runner" in loaded
        assert _hits(loaded, (
            "repro.api",
            "repro.sweep.engine",
            "repro.sweep.store",
            "repro.studies.engine",
            "repro.studies.policymap",
            "repro.studies.report",
            "repro.backends",
            "repro.obs",
            "repro.loc",
        )) == []

    def test_study_monitors_load_no_orchestration(self):
        # The monitors a study attaches to one job, built as a
        # monitored single run builds them.
        loaded = _loaded_after(
            """
            from repro.loc.builtin import (
                power_distribution_formula,
                throughput_distribution_formula,
            )
            from repro.loc.monitor import build_monitor
            from repro.scenarios import get_scenario
            from repro.studies.spec import StudySpec

            span = 50
            gates = StudySpec(span=span).assertions_for(get_scenario("saturation_stress"))
            monitors = [
                build_monitor(power_distribution_formula(span=span), expect="distribution"),
                build_monitor(throughput_distribution_formula(span=span),
                              expect="distribution"),
                *(build_monitor(gate.formula, expect="checker") for gate in gates),
            ]
            assert len(monitors) > 2
            """
        )
        assert "repro.studies.spec" in loaded
        assert _hits(loaded, (
            "repro.api",
            "repro.backends",
            "repro.sweep.engine",
            "repro.studies.engine",
        )) == []

    def test_cli_import_loads_no_simulator(self):
        loaded = _loaded_after("import repro.cli")
        assert "repro.cli" in loaded
        assert _hits(loaded, ("repro.runner", "repro.loc")) == []

    def test_process_pool_sweep_loads_no_distributed_backend(self):
        loaded = _loaded_after(
            """
            from repro.api import ExecutionPolicy, Session
            from repro.config import RunConfig
            from repro.sweep.spec import Job

            jobs = [Job.build(RunConfig(duration_cycles=20_000, seed=seed))
                    for seed in (1, 2)]
            session = Session(execution=ExecutionPolicy(workers=2))
            assert len(session.sweep(jobs)) == 2
            """
        )
        assert "repro.backends.local" in loaded
        assert _hits(loaded, (
            "repro.backends.distributed",
            "repro.backends.worker",
        )) == []

    def test_run_length_loads_no_session_sweep_or_loc(self):
        # ``repro scenarios NAME --run`` reads its run length here.
        loaded = _loaded_after(
            """
            from repro.experiments.common import cycles_for

            assert cycles_for("bench") == 400_000
            """
        )
        assert "repro.experiments.common" in loaded
        assert _hits(loaded, (
            "repro.api",
            "repro.runner",
            "repro.sweep.engine",
            "repro.sweep.store",
            "repro.loc",
        )) == []


@pytest.mark.parametrize("package", ALL_PACKAGES)
def test_each_package_imports_first(package):
    # Import order must not matter: a package that only loads after
    # another has (an import cycle) fails here.
    loaded = _loaded_after(f"import {package}")
    assert package in loaded


_RESOLVE = """
import importlib, inspect, json, sys

name = sys.argv[1]
package = importlib.import_module(name)
exports = package._EXPORTS
eager = sorted(n for n in package.__all__ if n in vars(package))
listed = dir(package)
bound = {}
exec(f"from {name} import *", bound)
report = {
    "all": sorted(package.__all__),
    "table": sorted(exports),
    "eager": eager,
    "not_in_dir": [n for n in package.__all__ if n not in listed],
    "not_bound": [n for n in package.__all__ if n not in bound],
    "not_own_object": [],
    "not_cached": [n for n in package.__all__ if n not in vars(package)],
    "unknown": "no AttributeError",
}
for export in exports:
    value = getattr(package, export)
    home = importlib.import_module(exports[export])
    defined_elsewhere = (
        (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ != home.__name__
    )
    if value is not getattr(home, export) or bound[export] is not value or defined_elsewhere:
        report["not_own_object"].append(export)
try:
    getattr(package, "no_such_export")
except AttributeError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


@pytest.mark.parametrize("package", sorted(LAZY_PACKAGES))
def test_exports_resolve_to_their_defining_module(package):
    report = _fresh(_RESOLVE, package)
    eager = sorted(LAZY_PACKAGES[package])
    assert report["eager"] == eager
    assert report["table"] == sorted(set(report["all"]) - set(eager))
    assert report["not_in_dir"] == []
    assert report["not_bound"] == []
    assert report["not_own_object"] == []
    assert report["not_cached"] == []
    assert report["unknown"] == f"module {package!r} has no attribute 'no_such_export'"
