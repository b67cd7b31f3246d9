"""The repository benchmark: simulated cycles per host second.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload trough_idle|saturated_apps|catalog_study \
        [--seed 7] [--seconds 20] [--trace 0|1]

Prints one detail JSON line, then, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
simbench/README.md describes the workloads and every metric.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trough_idle", "saturated_apps", "catalog_study")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
