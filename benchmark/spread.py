"""Run-to-run spread of the end-to-end metrics, raw and calibrated.

    python3 benchmark/spread.py --workloads nf-sweep,cup-table --seeds 1-10

Runs the benchmark once per seed and workload, one run at a time, for the
``run_seconds`` that BENCHMARK.json gives, and prints for each metric the
median, the interquartile range and the max-min range as shares of the
median, both at reference speed and raw.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = json.loads(next(l for l in lines if l.startswith("raw: "))[5:])
    cal = {k: v["value"] for k, v in result["metrics"].items()}
    return result, cal, raw, time.perf_counter() - t0


def spread(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "iqr": (q3 - q1) / med,
            "range": (max(values) - min(values)) / med}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result, cal, raw, wall = one_run(workload, seed, RUN_SECONDS)
            runs.append((cal, raw))
            print(f"{workload} seed {seed} ({wall:.0f} s, {result['failed']}/"
                  f"{result['attempted']} failed): " + ", ".join(
                f"{k} {v:.4g} (raw {raw.get(k, v):.4g})" for k, v in sorted(cal.items())),
                flush=True)
        print(f"\n| {workload} | median | IQR | range | raw IQR | raw range |")
        print("|---|---|---|---|---|---|")
        for metric in sorted(runs[0][0]):
            cal = spread([c[metric] for c, _ in runs])
            raw = spread([r.get(metric, c[metric]) for c, r in runs])
            print(f"| {metric} | {cal['median']:.4g} | {cal['iqr']:.1%} | "
                  f"{cal['range']:.1%} | {raw['iqr']:.1%} | {raw['range']:.1%} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
