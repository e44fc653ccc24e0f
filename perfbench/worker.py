"""One workload process; started by run.py, never by hand.

    worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
              [--probe]

Imports the library, builds the workload's inputs from the seed, warms up,
then prints `{"ready": <monotonic time>}` for the launcher's set-up clock
and `{"setup_scale": ...}`, the factor that calibrates that set-up time
(calibrate.py).  With --probe it stops there.  Otherwise it runs items back
to back (one closed-loop client) for S seconds, with the calibration kernel
in between, and prints one JSON line of raw results.
With --trace 1 it first runs the items untraced for S/2 seconds, then
replays exactly those items under the tracer and compares every item's
output digest between the two passes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibrate

ROOT = Path(__file__).resolve().parent.parent


class Pass(NamedTuple):
    latencies: list
    calibrated: list
    kernel_s: float  # median reference-kernel time during the pass
    digests: list
    oks: list
    z_scores: list


def run_items(wl, indices, deadline=None, tracer=None):
    """Run items in order until the deadline or the index list runs out.

    Returns per-item latencies (seconds spent inside the library calls) and
    the same latencies calibrated to the reference host speed (calibrate.py),
    digests and pass/fail flags, and the z-scores the checks reported.
    """
    calibrator = calibrate.Calibrator(wl.KERNEL)
    starts, latencies, digests, oks, z_scores = [], [], [], [], []
    for i in indices:
        inputs = wl.make(i)
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            result = wl.run(inputs)
        except Exception as exc:  # an item that raises counts as failed, never dropped
            latencies.append(time.perf_counter() - start)
            digests.append(f"raised {type(exc).__name__}: {exc}")
            oks.append(False)
        else:
            latencies.append(time.perf_counter() - start)
            try:
                ok, dig, info = wl.check(inputs, result)
            except Exception as exc:  # a malformed output fails its check
                ok, dig, info = False, f"check raised {type(exc).__name__}: {exc}", {}
            digests.append(dig)
            oks.append(ok)
            if "z" in info:
                z_scores.append(info["z"])
        starts.append(start)
        calibrator.after_item(latencies[-1])
        if deadline is not None and time.perf_counter() >= deadline:
            break
    calibrated = calibrator.calibrate(starts, latencies)
    return Pass(latencies, calibrated, calibrator.median_s(), digests, oks, z_scores)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import numpy
    import probdigit

    src = ROOT / "src"
    if Path(probdigit.__file__).resolve().parent.parent != src:
        print(f"probdigit imported from {probdigit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    wl.warmup()
    if hasattr(wl, "redrawn_maps"):
        wl.redrawn_maps = 0  # count only the measured items' draws
    ready = time.monotonic()
    print(json.dumps({"ready": ready}), flush=True)
    print(json.dumps({"setup_scale": calibrate.setup_scale()}), flush=True)
    if args.probe:
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    run = run_items(wl, itertools.count(), start + seconds)
    report = {
        "items": len(run.latencies),
        "failed": run.oks.count(False),
        "latencies_s": run.latencies,
        "calibrated_s": run.calibrated,
        "kernel": wl.KERNEL,
        "kernel_s": run.kernel_s,
        "numpy": numpy.__version__,
    }
    if hasattr(wl, "redrawn_maps"):
        report["redrawn_maps"] = wl.redrawn_maps
    if args.trace:
        report.update(traced_pass(wl, args, run))
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)
    return 0


def traced_pass(wl, args, untraced: Pass) -> dict:
    """Replay the untraced items under the tracer.

    An item fails if it failed in either pass or its two digests differ.
    """
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_items(wl, range(len(untraced.digests)), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.dump(args.out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    same = [a == b for a, b in zip(untraced.digests, traced.digests)]
    failed = sum(not (a and b and c) for a, b, c in zip(untraced.oks, traced.oks, same))
    layers = tracing.per_layer_metrics(tracer, len(traced.digests), traced.z_scores)
    overhead = sum(traced.calibrated) / sum(untraced.calibrated)
    layers["bench.trace_overhead_ratio"] = (overhead, "ratio")
    return {
        "failed": failed,
        "digest_mismatches": same.count(False),
        "layers": layers,
        "spans": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
    }


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
