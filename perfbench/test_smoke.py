"""Smoke test of the benchmark: every workload for a second or a few.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced.  The tests assert that every metric
BENCHMARK.json names is emitted with its unit, that no item failed, and
that every per-layer metric is nonzero on at least one of the workloads
whose row of the layer table (perfbench/README.md) names it.  A last test
checks that the launcher refuses to report a result when the library
sources are missing.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
# A traced run spends half of --seconds untraced and replays those items;
# 4 s leaves cli-session room for a full 9-call session in either pass.
SECONDS = {"cli-session": 4}
SESSION_CALLS = 9

# The layer table: each per-layer metric and the workloads it is read on.
LAYER_TABLE = (
    (("point-remap",), (
        "core.digit_of.calls", "core.digit_of.self_ms", "core.prefix.calls_per_digit",
        "core.decode.self_ms", "core.evaluate.self_ms", "core.decode.digits",
        "core.value.denominator_bits_max", "remap.apply.self_ms",
        "remap.apply_inverse.self_ms", "derivative.classify_point.self_ms",
    )),
    (("point-remap", "integral-certify"), (
        "core.prefix.calls", "core.p.calls", "core.prefix.self_ms",
        "bijections.apply.calls", "bijections.inverse.calls",
        "bijections.verify_bijection.self_ms",
    )),
    (("integral-certify",), (
        "remap.closed_form_integral.exact_ms", "remap.closed_form_integral.truncated_ms",
        "remap.closed_form_integral.terms", "remap.integral_bracket.d8_ms",
        "remap.integral_bracket.d32_ms", "remap.integral_bracket.denominator_bits",
        "derivative.expected_log_ratio.self_ms",
    )),
    (("float-mc",), (
        "numeric.remap_values.self_ms", "numeric.remap_values.samples_per_s",
        "numeric.remap_values.bytes_computed", "numeric.peak_alloc_mb",
        "numeric.monte_carlo_integral.z_score",
    )),
    (("cli-session",), (
        "configio.parse.self_ms", "cli.decode.self_ms", "cli.eval-g.self_ms",
        "cli.integral.self_ms", "cli.sample.self_ms", "cli.selfcheck.self_ms",
    )),
    (WORKLOADS, ("bench.trace_overhead_ratio",)),
)
LAYER_WORKLOADS = {metric: where for where, metrics in LAYER_TABLE for metric in metrics}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", str(SECONDS.get(workload, 1)), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def result_of(workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] >= (SESSION_CALLS if workload == "cli-session" else 1)
    assert result["failed"] / result["attempted"] == 0  # error_rate
    assert result["correct"] is True


def test_layer_table_covers_every_per_layer_metric():
    assert sorted(LAYER_WORKLOADS) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("metric", sorted(LAYER_WORKLOADS))
def test_layer_metric_is_traced(metric):
    values = {w: result_of(w, 1)["metrics"][metric]["value"] for w in LAYER_WORKLOADS[metric]}
    assert any(values.values()), values


def test_calibration_divides_by_the_nearest_kernel_runs():
    import calibrate

    cal = calibrate.Calibrator("python")
    # kernel runs at t = 0..19; the host is twice as slow from t = 10 on
    cal.starts = [float(t) for t in range(20)]
    cal.seconds = [0.002] * 10 + [0.004] * 10
    ref = calibrate.REF_S["python"]
    out = cal.calibrate([0.5, 19.5], [0.010, 0.020])
    assert out == pytest.approx([0.010 * ref / 0.002, 0.020 * ref / 0.004])


def test_float_mc_checks_a_log_ratio_without_spread():
    # seed 210 draws (1/5,1/5,1/5 | 1/2) to itself under table:[2,3,1], whose
    # log ratio is 0 for every digit; its check once divided by that 0
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.FloatMC(210, ROOT / ".perfbench_out")
    flat = [k for k, (_, _, (_, sd)) in enumerate(wl.pool) if sd == 0]
    assert flat
    inputs = (flat[0], 1234, 20_000)
    ok, _, _ = wl.check(inputs, wl.run(inputs))
    assert ok


def test_refuses_without_library_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
