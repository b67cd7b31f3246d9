"""Experiment registry: ids, titles, runners.

Experiments register themselves at import; :func:`get_experiment`
triggers the imports lazily so ``import repro`` stays cheap.  A runner
is ``runner(profile, session)``: the figure's grids sweep through the
given :class:`~repro.api.session.Session`, which is how a figure gets
its execution policy, store and hooks.  Every entry point runs a figure
through :meth:`Session.experiment <repro.api.session.Session.experiment>`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.errors import ExperimentError

#: Modules that register experiments when imported.
_EXPERIMENT_MODULES = (
    "repro.experiments.fig01_ixp_table",
    "repro.experiments.fig02_traffic",
    "repro.experiments.fig03_schema",
    "repro.experiments.fig04_snapshot",
    "repro.experiments.fig05_scaling_table",
    "repro.experiments.fig06_tdvs_power",
    "repro.experiments.fig07_tdvs_throughput",
    "repro.experiments.fig08_power_surface",
    "repro.experiments.fig09_throughput_surface",
    "repro.experiments.fig10_edvs",
    "repro.experiments.fig11_policy_comparison",
    "repro.experiments.idle_time",
    "repro.experiments.ablations",
    "repro.experiments.extensions",
)


@dataclass
class ExperimentResult:
    """Output of one experiment run."""

    experiment_id: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)

    def json_data(self) -> Dict[str, Any]:
        """``data`` with JSON-safe keys/values.

        Sweep results are keyed by tuples like ``(threshold, window)``;
        JSON objects need string keys, so tuples join with ``/`` and the
        no-DVS baseline key ``(None, None)`` becomes ``"noDVS"``.
        """
        return _jsonify(self.data)

    def to_json(self, indent: int = 2) -> str:
        """Serialize id + data (not the rendered text) as JSON."""
        import json

        return json.dumps(
            {"experiment_id": self.experiment_id, "data": self.json_data()},
            indent=indent,
            sort_keys=True,
        )


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {_json_key(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


def _json_key(key: Any) -> str:
    if isinstance(key, tuple):
        if all(part is None for part in key):
            return "noDVS"
        return "/".join(_json_key(part) for part in key)
    if isinstance(key, float) and key == int(key):
        return str(int(key))
    return str(key)


@dataclass
class Experiment:
    """A registered experiment."""

    experiment_id: str
    title: str
    paper_ref: str
    runner: Callable[[str, Any], ExperimentResult]

    def run(self, profile: str = "quick", session=None) -> ExperimentResult:
        """Execute with a named run-length profile.

        Any profile of :data:`~repro.experiments.common.PROFILE_CYCLES`
        is accepted (``bench``, ``quick`` or ``paper``); an unknown one
        raises :class:`~repro.errors.ExperimentError`.  ``session`` (a
        :class:`repro.api.Session`; default: a serial session with no
        store) runs the figure's grids.
        """
        if session is None:
            from repro.api.session import Session

            session = Session()
        return session.experiment(self.experiment_id, profile=profile)


_REGISTRY: Dict[str, Experiment] = {}
_LOADED = False


def register(experiment_id: str, title: str, paper_ref: str):
    """Decorator: register ``runner(profile, session) -> ExperimentResult``."""

    def wrap(runner: Callable[[str, Any], ExperimentResult]) -> Callable:
        _REGISTRY[experiment_id] = Experiment(experiment_id, title, paper_ref, runner)
        return runner

    return wrap


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    for module_name in _EXPERIMENT_MODULES:
        importlib.import_module(module_name)
    _LOADED = True


def list_experiments() -> List[str]:
    """All registered experiment ids, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by id."""
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def run_experiment(
    experiment_id: str, profile: str = "quick", session=None
) -> ExperimentResult:
    """Run one experiment by id (optionally through a given session)."""
    return get_experiment(experiment_id).run(profile, session=session)
