"""Run-to-run spread of one workload: N runs, one seed each.

    python3 perfbench/steady.py --workload eval-stream [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py`` N times from the current directory (the root of a
checkout) with seeds ``first-seed .. first-seed+N-1`` and the
``run_seconds`` of ``BENCHMARK.json``, and prints, per end-to-end metric,
the median, the quartiles (``statistics.quantiles(n=4)``), min/max and the
spread: the interquartile distance as a share of the median, beside the
metric's bound in ``BENCHMARK.json``.  The wall time of each run is reported
as ``run_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds: Dict[str, float] = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - started
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with {proc.returncode}", file=sys.stderr)
            print(proc.stdout, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        values.setdefault("run_wall_s", []).append(wall)
        units["run_wall_s"] = "s"
        shown = " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        )
        host = next((line for line in lines if line.startswith("host_slowdown ")), "")
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}: {shown}; "
              f"{host}", flush=True)
    print(f"{'metric':34} {'unit':>13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = f"{bounds[name]:.2f}" if name in bounds else ""
        print(f"{name:34} {units[name]:>13} {med:11.4g} {q1:11.4g} {q3:11.4g} "
              f"{min(vals):11.4g} {max(vals):11.4g} {spread:7.3f} {bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
