"""Platform benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload algo_compare --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run record (sample counts, host, errors and, when traced,
every span) is written to ``.perfbench/<workload>-seed<N>-trace<T>.json``.
The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=("algo_compare", "dataset_compare", "upload_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]

    import numpy
    import scipy
    import workloads

    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    record = outcome.pop("record")
    record.update({
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "predictions": __import__("layers").PREDICTIONS,
        "result": outcome,
    })
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )
    for line in record["errors"] + record["mismatches"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: samples {json.dumps(record['samples'])}", file=sys.stderr)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
