"""Tests of the benchmark harness itself, on shrunken (smoke) workloads.

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def smoke(workload: str, trace: int, *extra: str) -> tuple[dict, int]:
    proc, result = bench("--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    passes = int(next(line for line in proc.stdout.splitlines()
                      if line.startswith("# passes: ")).split()[-1])
    return result, passes


def test_exact_oracle_equals_tests_oracle():
    from _oracle import binom_cdf_exact, lower_tail_bound_exact

    for n, p in ((1, 0.5), (7, 0.1), (30, 0.3), (60, 0.77)):
        for k in range(-1, n + 2):
            assert Fraction(*checks.binom_cdf_exact(n, p, k)) == binom_cdf_exact(n, p, k)
        for k in range(checks.gamma_r(n, p)):
            got = Fraction(*checks.lower_tail_bound_exact(n, p, k))
            assert got == lower_tail_bound_exact(n, p, k)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    result, passes = smoke(workload, 0)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= passes >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_matches_untraced_operation_counts(workload):
    plain, plain_passes = smoke(workload, 0)
    traced, traced_passes = smoke(workload, 1)
    assert traced["correct"] is True
    assert plain["attempted"] / plain_passes == traced["attempted"] / traced_passes
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["mc.pvalue_calls_per_rep"] == (1.0 if workload == "mc" else 0.0)


def test_injected_wrong_output_counts_as_failed():
    result, _ = smoke("curves", 0, "--inject-fault")
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_every_binding_of_a_layer_function_is_wrapped():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import prwtest.cli, tracing
tracing.Tracer().install()
import prwtest
bound = [prwtest.prw.cdf, prwtest.prw.sf, prwtest.baselines.cdf, prwtest.cdf,
         prwtest.mc.prw_pvalue, prwtest.mc.bentkus_pvalue, prwtest.mc.hoeffding_tight_pvalue,
         prwtest.cli.prw_pvalue, prwtest.cli.compare, prwtest.cli.simulate_superuniformity,
         *prwtest.cli._PROCEDURES.values(), prwtest.mc.LossDistribution.sample]
assert all(hasattr(f, "__wrapped__") for f in bound), bound
"""
    proc = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = bench("--workload", "calibrate", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_timings_are_scaled_by_the_speed_probe():
    import run

    slow, fast = 2 * run.REFERENCE_PROBE_S, run.REFERENCE_PROBE_S / 2
    res = run._scale({"setup_s": 0.2, "setup_probe_s": [slow] * 5,
                      "ops": [{"latency_s": 1.0}], "probe_s": [[fast] * 3, [fast] * 3]})
    assert res["setup_ref_s"] == pytest.approx(0.1)
    assert res["ops"][0]["ref_s"] == pytest.approx(2.0)
