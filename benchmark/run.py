"""The bsnakes benchmark: one command, stdlib only.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A single-client closed loop: each round
of the workload runs in a fresh worker process (benchmark/worker.py), one
at a time, and the next starts when the last has exited.  Rounds repeat
until the measured op time, at reference speed, reaches --seconds (whole
rounds only, and at least the workload's minimum).  A workload with replicas (cup-table) runs
each round in that many processes on identical inputs.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics, timed at reference speed (see calibrate.py).  With
--trace 1 the run makes one untraced and one traced round on the same
inputs and reports the per-layer metrics plus the tracing overhead.  The
lines before the last show the raw (uncalibrated) figures and the raw
kernel times, so that machine load is visible.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
from stats import percentile, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    pass


def worker(workload: str, seed: int, rnd: int, **flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(rnd)]
    for key, value in flags.items():
        cmd += [f"--{key.replace('_', '-')}", value]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_pct(name: str) -> float:
    wl = WORKLOADS[name]
    return tail_percentile(wl.min_rounds * wl.round_ops)


def summarize(lat: list[float], least: list[float], pct: float) -> dict[str, float]:
    """Throughput and median over every op timing; the tail over each op's
    least time across the replicas of its round."""
    return {"ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": percentile(sorted(lat), 50) * 1e3,
            "op_tail_ms": percentile(sorted(least), pct) * 1e3}


def least(replicas: list[dict], key: str) -> list[float]:
    """Per-op least time over the replicas of one round."""
    return [min(times) for times in zip(*(r[key] for r in replicas))]


def untraced(name: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[name]
    rounds: list[list[dict]] = []
    measured = 0.0
    while True:
        k = len(rounds)
        rounds.append([worker(name, seed, k, deep="1" if k == j == 0 else "0")
                       for j in range(wl.replicas)])
        measured += sum(sum(r["lat_s"]) for r in rounds[-1])
        if (len(rounds) >= wl.min_rounds
                and measured + 0.5 * measured / len(rounds) >= seconds):
            break
    procs = [r for replicas in rounds for r in replicas]
    setups = [r["setup_s"] for r in procs]
    setups_raw = [r["setup_raw"] for r in procs]
    while len(setups) < wl.setup_samples:
        extra = worker(name, seed, len(setups), setup_only="1")
        setups.append(extra["setup_s"])
        setups_raw.append(extra["setup_raw"])

    pct = tail_pct(name)
    metrics = summarize([t for r in procs for t in r["lat_s"]],
                        [t for replicas in rounds for t in least(replicas, "lat_s")], pct)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in procs)
    raw = summarize([t for r in procs for t in r["lat_raw"]],
                    [t for replicas in rounds for t in least(replicas, "lat_raw")], pct)
    raw["setup_s"] = statistics.median(setups_raw)
    kernels = [k for r in procs for k in r["kernel_samples"]]
    print(f"workload {name}: seed {seed}, {len(rounds)} rounds of {wl.replicas} "
          f"process(es), {sum(r['attempted'] for r in procs)} ops, tail at p{pct:g}")
    print(f"kernel raw ms: median {statistics.median(kernels) * 1e3:.3f}, "
          f"min {min(kernels) * 1e3:.3f}, max {max(kernels) * 1e3:.3f} "
          f"(nominal {calibrate.NOMINAL_KERNEL_S * 1e3:.3f})")
    print("raw: " + json.dumps(raw))
    return {"rounds": procs, "metrics": metrics}


def traced(name: str, seed: int) -> dict:
    """Round 0 untraced, then round 0 again traced, on the same inputs."""
    base = worker(name, seed, 0)
    run = worker(name, seed, 0, trace="1", deep="1")
    metrics = dict(run["layers"])
    metrics["trace.overhead_pct"] = 100.0 * (sum(run["lat_s"]) / sum(base["lat_s"]) - 1)
    print(f"workload {name}: seed {seed}, traced round of {len(run['lat_s'])} ops")
    return {"rounds": [base, run], "metrics": metrics}


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "trace.overhead_pct": "%",
         "ring.restrictable_kept_ratio": "ratio"}


def unit(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("self_s") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        # Compile the package's bytecode once, untimed, as any installed
        # copy would have it; set-up then times import, not compilation.
        subprocess.run([sys.executable, "-c", "import bsnakes"], cwd=ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       timeout=WORKER_TIMEOUT_S, capture_output=True)
        if args.trace:
            out = traced(args.workload, args.seed)
        else:
            out = untraced(args.workload, args.seed, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, WorkerFailed) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in out["rounds"])
    failed = sum(r["failed"] for r in out["rounds"])
    for r in out["rounds"]:
        for op, reason in r["failures"]:
            print(f"failed op {op}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in sorted(out["metrics"].items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
