"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload verify --seeds 1 2 3 4 5

Runs the end-to-end (``--trace 0``) benchmark for ``run_seconds`` of
``BENCHMARK.json`` once per seed.  Prints each run's wall time and metrics,
then for each metric the median of the per-run values and the distance
between their first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the bound ``BENCHMARK.json``
gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name}: median={med:.6g} spread={spread:.4f} bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
