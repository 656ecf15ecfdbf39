"""Reference figures for the baseline rows, measured once with the harness.

    python3 benchmark/reference.py

Each row runs in a fresh process (a row that runs a command runs it as a
grandchild).  The row reports its raw wall time and its own peak RSS; the
parent times the calibration kernel before and after the row and scales
the raw time to reference speed.  These rows are too long for the
benchmark's workloads; the README records the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PYTEST = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p",
          "no:cacheprovider"]
CLI = [sys.executable, "-m", "bsnakes.cli"]

#: name -> python statement (timed in the child after ``import bsnakes as bs``)
#:         or a command line (timed as a whole, import included).
ROWS = {
    "tier-1": PYTEST,
    "criterion-9": PYTEST + ["tests/test_acceptance.py::test_criterion_9_ring_axioms"],
    "criterion-6": PYTEST + ["tests/test_acceptance.py::test_criterion_6_chain_level_vanishing"],
    "relation_matrix-r5": "bs.relation_matrix((1, 2, 3, 4, 5))",
    "normal-forms-r6": "bs.coefficient_range_experiment((1, 2, 3, 4, 5, 6), cap=6)",
    "ring_table-4": "bs.ring_table(4)",
    "cli-ring-table-4": CLI + ["ring-table", "--n", "4", "--json"],
    "ring_table-5": "bs.ring_table(5, cap=5)",
    "cup_basis-u7": ("bs.cup_basis(bs.parse_sp('[3/-12]'), bs.parse_sp('[7-4/65]'))"),
    "cli-verify-4": CLI + ["verify", "--n", "4"],
    "check_relations_vanish-5": "bs.oracle.check_relations_vanish(5)",
    "cycle-solver-r6": "bs.solve_in_snake_cycles(bs.SimplicialChain(), range(1, 7), cap=6)",
    "cycle-solver-r7": "bs.solve_in_snake_cycles(bs.SimplicialChain(), range(1, 8), cap=7)",
}


def child(name: str) -> dict:
    row = ROWS[name]
    if isinstance(row, list):
        t0 = time.perf_counter()
        proc = subprocess.run(row, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        wall = time.perf_counter() - t0
        tail = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
        return {"raw_s": wall, "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024, "exit": proc.returncode, "last_line": tail[0] if tail else ""}
    import bsnakes as bs
    t0 = time.perf_counter()
    exec(row, {"bs": bs})
    wall = time.perf_counter() - t0
    return {"raw_s": wall, "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure(name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    before = calibrate.kernel_median(5)
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--child", name], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    after = calibrate.kernel_median(5)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["kernel_ms"] = (before * 1e3, after * 1e3)
    out["ref_s"] = out["raw_s"] * 2 * calibrate.NOMINAL_KERNEL_S / (before + after)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--child")
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child)))
        return 0
    for name in ROWS:
        res = measure(name)
        extra = f", exit {res['exit']}: {res['last_line']}" if "exit" in res else ""
        print(f"{name}: {res['raw_s']:.2f} s raw, {res['ref_s']:.2f} s at reference speed, "
              f"peak RSS {res['rss_mb']:.0f} MB, kernel before / after "
              f"{res['kernel_ms'][0]:.1f} / {res['kernel_ms'][1]:.1f} ms{extra}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
