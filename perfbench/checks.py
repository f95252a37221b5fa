"""Correctness checks on the captured outputs of one pass, run outside timing.

Reference values are computed independently of prwtest: binomial tails in
exact rational arithmetic (the same values as ``tests/_oracle.py``, summed
by Horner's rule over one common denominator so n = 5000 stays cheap), the
Hoeffding bound in 60-digit decimal arithmetic, and the FWER procedures from
their definitions.  A value passes when it lies within 1e-12 relative error
of the reference, plus half a unit of the last printed decimal when the
command rounds its output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import workloads

_TOL_INV = 10**12  # relative tolerance 1e-12
SNAP_RTOL = 1e-9  # integer-snap rule of the empirical-risk ceiling
ORACLE_SAMPLE = 20  # rows per plotdata/compare op checked against the exact oracle
MC_DELTAS = (0.01, 0.05, 0.1, 0.2)
PINNED_MC = Path(__file__).with_name("expected_mc.json")

_E = Fraction(math.e)


# -- exact references ---------------------------------------------------------
# Exact values are kept as (numerator, denominator) pairs of positive ints and
# compared by cross-multiplication: normalising 10^5-bit fractions with gcd
# would cost far more than the values themselves.

@lru_cache(maxsize=None)
def binom_cdf_exact(n: int, p: float, k: int) -> tuple[int, int]:
    """P(Bin(n, p) <= k) exactly, p taken as the exact value of its float."""
    if k < 0:
        return 0, 1
    if k >= n:
        return 1, 1
    pf = Fraction(p)
    a, d = pf.numerator, pf.denominator
    c = d - a
    # sum_{j<=k} C(n,j) a^j c^(k-j), then scale by c^(n-k) / d^n.
    acc, comb, apow = 0, 1, 1
    for j in range(k + 1):
        acc = acc * c + comb * apow
        comb = comb * (n - j) // (j + 1)
        apow *= a
    return acc * c ** (n - k), d**n


def lower_tail_bound_exact(n: int, mean: float, k: int) -> tuple[int, int]:
    """mean*(n-k)/(n*mean-k) * P(Bin(n, mean) <= k) for 0 <= k < n*mean."""
    m = Fraction(mean)
    a, d = m.numerator, m.denominator
    num, den = binom_cdf_exact(n, mean, k)
    return a * (n - k) * num, (n * a - k * d) * den


def _clamp(x: tuple[int, int]) -> tuple[int, int]:
    return (1, 1) if x[0] >= x[1] else x


def ceil_scaled(n: int, t: float) -> int:
    nt = n * t
    nearest = round(nt)
    if abs(nt - nearest) <= SNAP_RTOL * max(1.0, nt):
        return int(nearest)
    return math.ceil(nt)


def gamma_r(n: int, mean: float) -> int:
    return max(1, ceil_scaled(n, mean))


def prw_exact(rhat: float, n: int, alpha: float) -> tuple[int, int]:
    """Clamped PRW p-value: the step bound at min(rhat, t_max), capped at 1."""
    gamma = gamma_r(n, alpha)
    t = min(rhat, (gamma - 1) / n)
    nt = n * t
    if abs(nt - (gamma - 1)) <= SNAP_RTOL * max(1.0, nt):
        return 1, 1  # boundary of the domain: the bound is at least 1
    return _clamp(lower_tail_bound_exact(n, alpha, ceil_scaled(n, t)))


def bentkus_exact(rhat: float, n: int, alpha: float) -> tuple[int, int]:
    num, den = binom_cdf_exact(n, alpha, ceil_scaled(n, rhat))
    return _clamp((_E.numerator * num, _E.denominator * den))


def hoeffding_ref(rhat: float, n: int, alpha: float) -> tuple[int, int]:
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(min(rhat, alpha)), Decimal(alpha)
        left = a * (a / b).ln() if a > 0 else Decimal(0)
        right = (1 - a) * ((1 - a).ln() - (1 - b).ln())
        return Fraction((-n * (left + right)).exp()).as_integer_ratio()


def close(got: float, want, digits: int | None = None) -> bool:
    """|got - want| <= 1e-12*|want| (+ half a unit in the last printed digit).

    ``want`` is a (numerator, denominator) pair or anything Fraction accepts.
    """
    if not math.isfinite(got):
        return False
    num, den = want if isinstance(want, tuple) else Fraction(want).as_integer_ratio()
    gn, gd = Fraction(got).as_integer_ratio()
    scale = 10 ** (digits or 0)
    # |gn/gd - num/den| <= num/(den*TOL) + 1/(2*scale), times 2*TOL*scale*gd*den
    lhs = abs(gn * den - num * gd) * 2 * _TOL_INV * scale
    rhs = 2 * scale * abs(num) * gd + (_TOL_INV * gd * den if digits is not None else 0)
    return lhs <= rhs


def at_most(x: tuple[int, int], y: Fraction) -> bool:
    return x[0] * y.denominator <= y.numerator * x[1]


# -- per-workload checks --------------------------------------------------------

class Checker:
    """Verdicts for the ops of one pass: a list with an error string or None per op."""

    def __init__(self, plan: dict, root: Path, seed: int, smoke: bool) -> None:
        self.plan = plan
        self.root = root
        self.rng = random.Random(f"check:{plan['workload']}:{seed}")
        self.pinned = None
        if plan["workload"] == "mc" and seed == workloads.DEFAULT_SEED and not smoke:
            self.pinned = json.loads(PINNED_MC.read_text())
        self._samples: dict = {}

    def check_pass(self, results: list[dict]) -> list[str | None]:
        verdicts = []
        for index, (op, res) in enumerate(zip(self.plan["ops"], results)):
            if res["error"] is not None:
                verdicts.append(res["error"])
            elif res["code"] != 0:
                verdicts.append(f"exit code {res['code']}")
            else:
                try:
                    verdicts.append(getattr(self, "_" + op["group"])(index, op, res["stdout"], results))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    verdicts.append(f"malformed output: {type(exc).__name__}: {exc}")
        return verdicts

    def _sample(self, key, population: int) -> set[int]:
        """A seeded subset of row indices, fixed for the whole run."""
        if key not in self._samples:
            size = min(ORACLE_SAMPLE, population)
            self._samples[key] = set(self.rng.sample(range(population), size))
        return self._samples[key]

    # calibrate ----------------------------------------------------------------

    def _hypothesis(self, index, op, stdout, results):
        n, alpha = self.plan["n"], float(workloads.CAL_ALPHA)
        digits = int(workloads.CAL_DIGITS)
        doc = json.loads(stdout)
        losses = _read_losses(op["input"])
        rhat = math.fsum(losses) / len(losses)
        if doc["command"] != "pvalue" or doc["n"] != n or doc["alpha"] != alpha:
            return f"wrong header fields {doc['command']!r}, n={doc['n']}, alpha={doc['alpha']}"
        if doc["rhat"] != rhat:
            return f"rhat {doc['rhat']!r} != {rhat!r}"
        got = doc["pvalues"]
        if set(got) != {"prw", "hoeffding_tight", "bentkus"}:
            return f"unexpected p-value keys {sorted(got)}"
        for name, want in (
            ("prw", prw_exact(rhat, n, alpha)),
            ("bentkus", bentkus_exact(rhat, n, alpha)),
            ("hoeffding_tight", hoeffding_ref(rhat, n, alpha)),
        ):
            if not close(got[name], want, digits):
                return f"{name} {got[name]!r} != reference {float(Fraction(*want))!r}"
        return None

    def _fwer(self, index, op, stdout, results):
        argv = op["argv"]
        procedure = argv[argv.index("--procedure") + 1]
        delta = float(argv[argv.index("--delta") + 1])
        hyp = [r["stdout"] for o, r in zip(self.plan["ops"], results) if o["group"] == "hypothesis"]
        pvalues = [float(line) for line in workloads.prw_pvalues_csv(hyp).split()[1:]]
        doc = json.loads(stdout)
        if doc["procedure"] != procedure or doc["delta"] != delta or doc["pvalues"] != pvalues:
            return "fwer echoed a different procedure, level or p-value list"
        m = len(pvalues)
        if procedure == "fixed-sequence":
            levels, rejected, testing = [], [], True
            for p in pvalues:
                levels.append(delta if testing else 0.0)
                rejected.append(testing and p <= delta)
                testing = testing and p <= delta
        elif procedure == "fallback":
            weights = [float(w) for w in argv[argv.index("--weights") + 1].split(",")]
            levels, rejected, carry = [], [], 0.0
            for p, w in zip(pvalues, weights):
                level = delta * w + carry
                levels.append(level)
                rejected.append(p <= level)
                carry = level if p <= level else 0.0
        else:
            levels = [delta / m] * m
            rejected = [p <= delta / m for p in pvalues]
        if doc["rejected"] != rejected:
            return f"{procedure} rejections differ from the recomputation"
        if len(doc["local_levels"]) != m or not all(
            close(g, w) for g, w in zip(doc["local_levels"], levels)
        ):
            return f"{procedure} local levels differ from the recomputation"
        return None

    # curves -------------------------------------------------------------------

    def _plotdata(self, index, op, stdout, results):
        argv = op["argv"]
        n, alpha = int(argv[argv.index("--n") + 1]), float(argv[argv.index("--alpha") + 1])
        grid = _plot_grid(argv)
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["rhat", "prw", "hoeffding_tight", "bentkus", "capped"]:
            return f"unexpected header {rows[0]}"
        if len(rows) - 1 != len(grid) or len(grid) != op["units"]:
            return f"{len(rows) - 1} rows, expected {len(grid)}"
        t_max = (gamma_r(n, alpha) - 1) / n
        sample = self._sample(("plotdata", index), len(grid))
        for i, (t, row) in enumerate(zip(grid, rows[1:])):
            rhat, prw, hoef, bent = (float(x) for x in row[:4])
            if rhat != t or row[4] != str(int(t > t_max)):
                return f"row {i}: rhat/capped {row[0]},{row[4]} for grid value {t!r}"
            if not close(hoef, hoeffding_ref(t, n, alpha)):
                return f"row {i}: hoeffding_tight {hoef!r} off the reference"
            if i in sample:
                if not close(prw, prw_exact(t, n, alpha)):
                    return f"row {i}: prw {prw!r} off the exact oracle"
                if not close(bent, bentkus_exact(t, n, alpha)):
                    return f"row {i}: bentkus {bent!r} off the exact oracle"
        return None

    def _compare_default(self, index, op, stdout, results):
        golden = (self.root / "tests" / "data" / "compare_default.csv").read_text()
        return None if stdout == golden else "default compare differs from compare_default.csv"

    def _compare(self, index, op, stdout, results):
        from prwtest.cli import DEFAULT_COMPARE_GRID

        argv = op["argv"]
        n, alpha = int(argv[argv.index("--n") + 1]), float(argv[argv.index("--alpha") + 1])
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["rhat", "prw", "hoeffding_tight", "bentkus"]:
            return f"unexpected header {rows[0]}"
        if len(rows) - 1 != len(DEFAULT_COMPARE_GRID):
            return f"{len(rows) - 1} rows, expected {len(DEFAULT_COMPARE_GRID)}"
        sample = self._sample(("compare", index), len(DEFAULT_COMPARE_GRID))
        for i, (t, row) in enumerate(zip(DEFAULT_COMPARE_GRID, rows[1:])):
            rhat, prw, hoef, bent = (float(x) for x in row)
            if not close(rhat, t, 4) or not close(hoef, hoeffding_ref(t, n, alpha), 4):
                return f"row {i}: rhat/hoeffding_tight {row[0]},{row[2]} off the reference"
            if i in sample:
                if not close(prw, prw_exact(t, n, alpha), 4):
                    return f"row {i}: prw {row[1]} off the exact oracle"
                if not close(bent, bentkus_exact(t, n, alpha), 4):
                    return f"row {i}: bentkus {row[3]} off the exact oracle"
        return None

    def _g_inverse(self, index, op, stdout, results):
        n, mean, delta = op["n"], op["mean"], op["delta"]
        value = float(stdout)
        j = round(value * n)
        last = gamma_r(n, mean) - 2  # the boundary point gamma-1 never qualifies
        if value != j / n or not 0 <= j <= last:
            return f"g_inverse {value!r} is not a grid point j/{n} with j <= {last}"
        tol = Fraction(1, _TOL_INV)
        if not at_most(lower_tail_bound_exact(n, mean, j), Fraction(delta) * (1 + tol)):
            return f"bound at {value!r} exceeds delta {delta}"
        if j < last and at_most(lower_tail_bound_exact(n, mean, j + 1), Fraction(delta) * (1 - tol)):
            return f"grid point {j + 1}/{n} also meets delta {delta}"
        return None

    # mc -----------------------------------------------------------------------

    def _validate(self, index, op, stdout, results):
        argv = op["argv"]
        arg = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
        doc = json.loads(stdout)
        expect = {"command": "validate", "dist": arg["--dist"], "n": int(arg["--n"]),
                  "alpha": float(arg["--alpha"]), "method": arg["--method"],
                  "reps": int(arg["--reps"]), "seed": int(arg["--seed"])}
        if any(doc[k] != v for k, v in expect.items()):
            return "validate echoed different settings"
        if doc["pass"] is not True:
            return "validate did not pass"
        reps = expect["reps"]
        results_ = doc["results"]
        if [r["delta"] for r in results_] != list(MC_DELTAS):
            return "unexpected delta levels"
        for r in results_:
            e, se = r["exceedance"], r["stderr"]
            if not 0.0 <= e <= 1.0 or not close(e, Fraction(round(e * reps), reps)):
                return f"exceedance {e!r} is not a frequency over {reps} reps"
            if not close(se, math.sqrt(e * (1.0 - e) / reps)) or r["pass"] is not (
                e <= r["delta"] + 3.0 * se
            ):
                return f"inconsistent stderr/pass at delta {r['delta']}"
        if self.pinned is not None:
            # The pinned quantity is the count of exceedances per level.
            want = self.pinned[arg["--dist"]]
            got = [r["exceedance"] for r in results_]
            if [round(e * reps) for e in got] != [round(e * reps) for e in want]:
                return f"exceedances {got} differ from the pinned {want}"
        return None


@lru_cache(maxsize=None)
def _read_losses(path: str) -> tuple[float, ...]:
    lines = Path(path).read_text().split()
    return tuple(float(x) for x in lines[1:])


def _plot_grid(argv: list[str]) -> list[float]:
    if "--grid" not in argv:
        return [i / 999 for i in range(1000)]
    start, step, stop = (float(x) for x in argv[argv.index("--grid") + 1].split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]
