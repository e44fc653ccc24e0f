"""Run one probdigit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload point-remap --seed 1 --seconds 20 --trace 0

Run from the repository root; see perfbench/README.md for the workloads,
the metrics and the JSON schema.  The launcher pins the BLAS thread pools to
one thread, then starts the workload in a fresh worker process
(perfbench/worker.py) that imports the library from ./src.  With --trace 0
it also starts set-up-only probes, so that `setup_s` is a median over
several process starts.  Times are calibrated to a reference host speed
(perfbench/calibrate.py); the record keeps the uncalibrated ones too.  The
last line of standard output is the result object; everything the run
learned goes to .perfbench_out/ as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Same names as workloads.WORKLOADS; the launcher does not import that module
# because it imports the library, and the launcher must run without it.
WORKLOADS = ("point-remap", "integral-certify", "float-mc", "cli-session")
SETUP_PROBES = 8  # set-up-only starts before the measured one; setup_s is the median of all
DEADLINE_S = 170.0
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def start_worker(args, extra: list[str], timeout: float) -> tuple[float, list[dict]]:
    """Run the worker to completion; return its start time and JSON lines."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out), *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise RuntimeError("worker printed no ready line")
    return spawned, lines


def tail(latencies: list[float], count: float) -> tuple[float, float]:
    """Latency at the highest percentile with 10 of `count` items beyond it.

    Returns (seconds, percentile).  `count` is the run's item count, or for
    calibrated latencies the count the run would have reached at reference
    speed, so that a slow or fast phase of the host does not move the
    percentile.  Runs of 10 items or fewer report the maximum as
    percentile 100.
    """
    ordered = sorted(latencies)
    if count <= 10 or len(ordered) <= 10:
        return ordered[-1], 100.0
    share = (count - 10) / count
    k = min(len(ordered), max(1, round(len(ordered) * share)))
    return ordered[k - 1], 100.0 * share


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def setup_seconds(spawned: float, lines: list[dict]) -> tuple[float, float]:
    """(raw, calibrated) time from spawning a worker to its first timed item."""
    raw = lines[0]["ready"] - spawned
    return raw, raw * lines[1]["setup_scale"]


def time_metrics(latencies: list[float], count: float) -> dict:
    tail_s, _ = tail(latencies, count)
    return {
        "items_per_s": (len(latencies) / sum(latencies), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
    }


def measure(args) -> dict:
    started = time.monotonic()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned, lines = start_worker(args, ["--probe"], timeout=60)
            setups.append(setup_seconds(spawned, lines))
    budget = DEADLINE_S - (time.monotonic() - started)
    spawned, lines = start_worker(args, [], timeout=budget)
    if len(lines) < 3:
        raise RuntimeError("worker printed no result")
    raw = lines[-1]
    setups.append(setup_seconds(spawned, lines))
    latencies, calibrated = raw["latencies_s"], raw["calibrated_s"]
    reference_count = len(latencies) * sum(latencies) / sum(calibrated)
    _, tail_pct = tail(calibrated, reference_count)
    failed = raw["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "numpy": raw["numpy"],
        "attempted": raw["items"],
        "failed": failed,
        "error_rate": failed / raw["items"],
        "tail_percentile": tail_pct,
        "tail_samples": len(latencies),
        "reference_count": reference_count,
        "kernel": raw["kernel"],
        "kernel_ms": raw["kernel_s"] * 1000,
        "setup_samples_s": [s for s, _ in setups],
        "setup_calibrated_s": [c for _, c in setups],
    }
    if "redrawn_maps" in raw:
        record["redrawn_maps"] = raw["redrawn_maps"]
    if args.trace:
        record.update(
            digest_mismatches=raw["digest_mismatches"],
            spans=raw["spans"],
            spans_dropped=raw["spans_dropped"],
        )
        record["metrics"] = raw["layers"]
    else:
        uncalibrated = {"setup_s": statistics.median(s for s, _ in setups)}
        raw_times = time_metrics(latencies, len(latencies))
        uncalibrated.update((k, v) for k, (v, _) in raw_times.items())
        record["uncalibrated"] = uncalibrated
        record["metrics"] = {
            "setup_s": (statistics.median(c for _, c in setups), "s"),
            **time_metrics(calibrated, reference_count),
            "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
        }
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "probdigit" / "__init__.py").is_file():
        print(f"error: no probdigit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.out = ROOT / ".perfbench_out"
    args.out.mkdir(exist_ok=True)
    try:
        record = measure(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (args.out / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    info = {k: v for k, v in record.items() if k != "metrics"}
    print("run " + json.dumps(info, separators=(",", ":")))
    for metric, (value, unit) in record["metrics"].items():
        print(f"{metric:42s} {value:14.6g} {unit}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
