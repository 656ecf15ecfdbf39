"""One round of one workload, in a fresh process.

    python3 benchmark/worker.py --workload W --seed S --round K
            [--trace 1] [--deep 1] [--setup-only 1]

Imports bsnakes from ``src/`` of the checkout (timed), does the
workload's one-off build (timed), runs the round's ops in chunks with the
calibration kernel between chunks, reads its own peak RSS, then runs the
untimed checks.  Prints one JSON object on stdout.  Started by run.py.
"""

import sys
import time

#: Raw op time between two kernel samples.
CHUNK_S = 0.2


def parse(argv: list[str]) -> dict[str, str]:
    # No argparse: anything imported before bsnakes would be left out of
    # the import time that set-up reports.
    if len(argv) % 2:
        raise SystemExit(f"worker: expected --key value pairs, got {argv}")
    return {argv[i].lstrip("-"): argv[i + 1] for i in range(0, len(argv), 2)}


def main() -> int:
    args = parse(sys.argv[1:])
    t0 = time.perf_counter()
    import bsnakes as bs
    import_s = time.perf_counter() - t0

    import json
    import os
    import random
    import resource
    import statistics
    from array import array

    import calibrate
    import tracer as tracing
    from stats import Tally
    from workloads import WORKLOADS

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(bs.__file__).startswith(src + os.sep):
        print(f"worker: bsnakes was imported from {bs.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args["workload"]]
    traced = args.get("trace") == "1"
    rng = random.Random(f"{wl.name}:{args['seed']}:{args['round']}")
    rnd = wl.build_round(bs, rng, int(args["round"]))

    tr = None
    if traced:
        tr = tracing.layer_tracer()
        tr.install()
        tr.active = True

    k_before = calibrate.kernel_median()
    t0 = time.perf_counter()
    wl.setup(bs, rnd)
    build_s = time.perf_counter() - t0
    k_after = calibrate.kernel_median()
    setup_raw = import_s + build_s
    setup_kernel = (k_before + k_after) / 2
    result = {
        "setup_raw": setup_raw,
        "setup_s": setup_raw * calibrate.NOMINAL_KERNEL_S / setup_kernel,
        "setup_kernel": setup_kernel,
    }
    if args.get("setup-only") == "1":
        print(json.dumps(result))
        return 0

    tally = Tally()
    outputs: dict[int, object] = {}
    keep = rnd.context.get("keep", ())
    # Compact, so that the harness adds little to the peak RSS it reads.
    lat_raw = array("d")
    starts = [0]                       # first op of each chunk, then n
    samples = [calibrate.kernel_time()]
    clock = time.perf_counter
    i, n = 0, len(rnd.inputs)
    while i < n:
        spent = 0.0
        while i < n and spent < CHUNK_S:
            arg = rnd.make(rnd.inputs[i])
            op = tally.attempt()
            t0 = clock()
            try:
                out = wl.op(bs, arg)
            except Exception as exc:  # an op that raises is a failed op
                dt = clock() - t0
                tally.fail(op, f"{type(exc).__name__}: {exc}")
            else:
                dt = clock() - t0
                with tally.guard([op], "inline check"):
                    bad = wl.inline_check(bs, arg, out, rnd)
                    if bad is not None:
                        tally.fail(op, bad)
                    elif wl.keep_output or op in keep:
                        outputs[op] = out
            lat_raw.append(dt)
            spent += dt
            i += 1
        starts.append(i)
        samples.append(calibrate.kernel_time())
    if tr is not None:
        tr.active = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wl.post_check(bs, rnd, outputs, rng, tally, args.get("deep") == "1")

    factors = calibrate.chunk_factors(samples)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.n_failed,
        "failures": sorted(tally.failed.items())[:5],
        "lat_raw": lat_raw.tolist(),
        "lat_s": [t * f for f, a, b in zip(factors, starts, starts[1:])
                  for t in lat_raw[a:b]],
        "kernel_samples": samples,
        "rss_mb": rss_mb,
    })
    if tr is not None:
        result["layers"] = tracing.layer_metrics(
            tr, calibrate.NOMINAL_KERNEL_S / statistics.median(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
