"""Set-up probe: one fresh interpreter, from start to the first simulated cycle.

Usage: ``python3 simbench/setup_probe.py WORKLOAD SEED``.  Imports what
the workload needs, builds its first model and writes ``ready`` on
stdout at the moment simulation would start; ``run.py`` times the span
from launching this process to reading that line.  For the study the
moment is the first job's dispatch to the ``process`` backend (the
``on_job_start`` hook), after job expansion and backend construction;
the probe then stops the study before any worker process starts.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


class _Ready(Exception):
    """Raised from the dispatch hook to stop the study at its first job."""


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload in ("trough_idle", "saturated_apps"):
        monitored = workload == "saturated_apps"
        config = workloads.single_run_configs(workload, seed)[0]
        workloads.SimulationRun(
            config, monitors=workloads.single_run_monitors(config, monitored)
        )
    elif workload == "catalog_study":
        from repro.api import EventHooks

        def first_dispatch(_job) -> None:
            _ready()
            raise _Ready

        spec = workloads.study_spec(seed)
        try:
            workloads.study_session().study(
                spec,
                jobs_by_scenario=spec.jobs_by_scenario(),
                hooks=EventHooks(on_job_start=first_dispatch),
            )
        except _Ready:
            return 0
        return 1
    else:
        return 2
    _ready()
    return 0


if __name__ == "__main__":
    sys.exit(main())
