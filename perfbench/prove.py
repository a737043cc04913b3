"""Steadiness check: run workloads over several seeds and report the spread.

Usage (from the root of a checkout)::

    python3 perfbench/prove.py --runs 10 [--first-seed 1] [--record perfbench/record.json] \
        [algo_compare dataset_compare upload_churn]
    python3 perfbench/prove.py --compare perfbench/record.json perfbench/record_set2.json

For every end-to-end metric it prints the median of the runs and the
spread, (q3 - q1) / median with the quartiles of ``statistics.quantiles``,
next to the metric's bound in BENCHMARK.json.  With ``--record`` it also
makes one traced run per workload and writes all figures, the host, the
sample counts and the layer predictions to a JSON file.  ``--compare``
reads two such files and prints, for every metric, how far the second
median moved from the first, next to the bound; it exits with 1 when a
median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, name, seed, trace):
    command = bench["command"] + [
        "--workload", name, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
    result = json.loads(line)
    if done.returncode != 0 or not result.get("correct"):
        print(f"{name} seed {seed} trace {trace}: FAILED\n{done.stderr}", file=sys.stderr)
        return None, None
    record = json.loads(
        (ROOT / ".perfbench" / f"{name}-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def compare(first_path: Path, second_path: Path, bench) -> int:
    first = json.loads(first_path.read_text())["workloads"]
    second = json.loads(second_path.read_text())["workloads"]
    worse = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    breaches = 0
    for name in first:
        for metric, better in worse.items():
            before, after = first[name][metric]["median"], second[name][metric]["median"]
            change = (after - before) / before if before else 0.0
            loss = change if better == "lower" else -change
            bound = first[name][metric]["bound"]
            breaches += loss > bound
            flag = "  <-- worse than bound" if loss > bound else ""
            print(f"{name:16s} {metric:20s} {before:10.4g} -> {after:10.4g}  "
                  f"{change:+.3f}  bound {bound}{flag}")
    return 1 if breaches else 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--compare", type=Path, nargs=2, metavar="RECORD")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, bench)
    names = args.workloads or [workload["name"] for workload in bench["workloads"]]
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    summary = {}
    for name in names:
        values = {metric: [] for metric in bounds}
        samples, steal = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, run_record = run_once(bench, name, seed, 0)
            if result is None:
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
            samples.append({kind: stats["n"] for kind, stats in run_record["samples"].items()})
            host = run_record["host"]
            steal.append(run_record["host_steal_share"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{metric}={values[metric][-1]:.4g}" for metric in bounds)
                + f", host steal {steal[-1]:.3f}", flush=True)
        summary[name] = {
            metric: {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds[metric],
                "values": series,
            }
            for metric, series in values.items()
        }
        summary[name]["samples_per_run"] = samples[0]
        summary[name]["host_steal_share"] = steal
        for metric in bounds:
            entry = summary[name][metric]
            steady = entry["spread"] <= entry["bound"] / 3
            flag = "" if steady else "  <-- wide"
            print(f"  {metric:20s} median {entry['median']:10.4g}  spread {entry['spread']:.3f}"
                  f"  bound {entry['bound']}{flag}")
    if args.record:
        predictions = None
        for name in names:
            result, run_record = run_once(bench, name, args.first_seed, 1)
            if result is None:
                return 1
            summary[name]["traced"] = {
                metric: value["value"] for metric, value in result["metrics"].items()
            }
            summary[name]["traced_samples"] = run_record["per_layer_samples"]
            predictions = run_record["predictions"]
        args.record.write_text(json.dumps({
            "host": host, "runs": args.runs, "first_seed": args.first_seed,
            "workloads": summary, "predictions": predictions,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
