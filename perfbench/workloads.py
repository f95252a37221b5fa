"""Workload definitions: seeded inputs and the operation plan of one pass.

A plan is a JSON-serialisable dict.  ``ops`` lists the timed operations in
order; each is either a CLI call (``kind == "cli"``, run as
``prwtest.cli.main(argv)``) or a library ``g_inverse`` call.  ``units`` is
the work an op contributes to ``units_per_s``: hypotheses on ``calibrate``,
output rows on ``curves``, Monte Carlo replications on ``mc``.

Inputs depend only on the workload, the seed and the smoke flag, and are
written to files before any timing starts.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("calibrate", "curves", "mc")

DEFAULT_SEED = 0

# Calibrate: a Learn-then-Test style family of hypotheses ordered by
# increasing true risk, so the fixed-sequence order is the natural one.
CAL_ALPHA = "0.1"
CAL_DELTA = "0.1"
CAL_MEAN_LO, CAL_MEAN_HI = 0.04, 0.13
CAL_BETA_CONCENTRATION = 10.0
# Full-precision decimals: small p-values survive the JSON output, so the
# oracle check and the fwer input carry the values the library computed.
# 27 is the largest count that still formats a p-value of exactly 1.
CAL_DIGITS = "27"

# Monte Carlo: true nulls just above alpha = 0.1.
MC_CONFIGS = (
    # (dist, n, full reps, smoke reps, method)
    ("bernoulli:0.11", 100, 100_000, 2_000, "prw"),
    ("beta:1.1:9", 100, 100_000, 2_000, "hoeffding-tight"),
    ("discrete:0,0.5,1:0.84,0.11,0.05", 1000, 10_000, 500, "bentkus"),
)

G_INVERSE_DELTAS = (0.01, 0.05, 0.1)


def build(workload: str, seed: int, smoke: bool, out: Path) -> dict:
    """Write the inputs of ``workload`` under ``out`` and return its plan."""
    if workload == "calibrate":
        return _calibrate(seed, smoke, out)
    if workload == "curves":
        return _curves(smoke)
    if workload == "mc":
        return _mc(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _calibrate(seed: int, smoke: bool, out: Path) -> dict:
    import numpy as np

    m, n = (6, 300) if smoke else (100, 5000)
    rng = np.random.default_rng(_rng("calibrate", seed).getrandbits(64))
    ops = []
    for i in range(m):
        mean = CAL_MEAN_LO + (CAL_MEAN_HI - CAL_MEAN_LO) * i / (m - 1)
        if i % 2 == 0:
            losses = (rng.random(n) < mean).astype(np.float64)
        else:
            c = CAL_BETA_CONCENTRATION
            losses = rng.beta(c * mean, c * (1.0 - mean), n)
        path = out / f"losses_{i:03d}.csv"
        path.write_text("loss\n" + "".join(f"{x!r}\n" for x in losses.tolist()))
        ops.append({
            "kind": "cli",
            "group": "hypothesis",
            "argv": ["pvalue", "--losses", str(path), "--alpha", CAL_ALPHA,
                     "--format", "json", "--digits", CAL_DIGITS],
            "input": str(path),
            "units": 1,
        })
    pvalue_file = str(out / "pvalues.csv")
    weights = ",".join([repr(1.0 / m)] * m)
    for procedure, extra in (("fixed-sequence", []), ("fallback", ["--weights", weights]),
                             ("bonferroni", [])):
        ops.append({
            "kind": "cli",
            "group": "fwer",
            "argv": ["fwer", pvalue_file, "--procedure", procedure, "--delta", CAL_DELTA,
                     "--format", "json", *extra],
            "units": 0,
        })
    return {"workload": "calibrate", "n": n, "pvalue_file": pvalue_file, "ops": ops}


def _curves(smoke: bool) -> dict:
    # The operations are fixed; the seed only picks the rows the oracle checks.
    if smoke:
        plots = (("200", "0.1", "0:0.05:1", 21), ("100", "0.3", "0:0.05:1", 21))
        big_compare_n = "300"
        ginv_n = 200
    else:
        plots = (("1000", "0.1", None, 1000), ("400", "0.3", None, 1000))
        big_compare_n = "3000"
        ginv_n = 1000
    ops = []
    for n, alpha, grid, rows in plots:
        argv = ["plotdata", "--n", n, "--alpha", alpha]
        if grid is not None:
            argv += ["--grid", grid]
        ops.append({"kind": "cli", "group": "plotdata", "argv": argv, "units": rows})
    ops.append({"kind": "cli", "group": "compare_default", "argv": ["compare"], "units": 45})
    ops.append({"kind": "cli", "group": "compare", "units": 45,
                "argv": ["compare", "--n", big_compare_n, "--alpha", "0.1"]})
    for delta in G_INVERSE_DELTAS:
        ops.append({"kind": "g_inverse", "group": "g_inverse", "n": ginv_n, "mean": 0.3,
                    "delta": delta, "units": 0})
    return {"workload": "curves", "ops": ops}


def _mc(seed: int, smoke: bool) -> dict:
    rng = _rng("mc", seed)
    ops = []
    for dist, n, reps, smoke_reps, method in MC_CONFIGS:
        reps = smoke_reps if smoke else reps
        ops.append({
            "kind": "cli",
            "group": "validate",
            "argv": ["validate", "--dist", dist, "--n", str(n), "--alpha", "0.1",
                     "--reps", str(reps), "--method", method,
                     "--seed", str(rng.getrandbits(32)), "--format", "json"],
            "units": reps,
        })
    return {"workload": "mc", "ops": ops}


def prw_pvalues_csv(outputs: list[str]) -> str:
    """The fwer input: the PRW p-value of each hypothesis, in plan order.

    An output that does not parse contributes 1.0, the value that rejects
    nothing; the op itself is counted as failed by the checks.
    """
    lines = ["pvalue"]
    for text in outputs:
        try:
            value = float(json.loads(text)["pvalues"]["prw"])
        except (ValueError, KeyError, TypeError):
            value = 1.0
        lines.append(repr(value))
    return "\n".join(lines) + "\n"
