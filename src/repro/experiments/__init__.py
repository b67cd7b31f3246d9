"""Experiment harnesses: one module per paper figure/table.

Every artifact of the paper's evaluation has a runner here that
regenerates it (text form).  Use the registry::

    from repro.experiments import get_experiment, list_experiments

    for exp_id in list_experiments():
        print(exp_id)
    result = get_experiment("fig06").run(profile="quick")
    print(result.text)

Profiles scale run length: ``bench`` for tests and benches, ``quick``
for CI, ``paper`` for the full 8x10^6-cycle runs the paper used.
"""

from repro.experiments.registry import (
    Experiment,
    ExperimentResult,
    get_experiment,
    list_experiments,
    run_experiment,
)

__all__ = [
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]
