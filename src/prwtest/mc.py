"""Seeded Monte Carlo harness for p-value validity and power measurements.

Sampling is fully deterministic given the seed: one numpy ``default_rng``
(PCG64) stream per simulation call, drawn in row chunks of ``(rows, n)`` that
are bitwise identical to a single block draw of shape ``(reps, n)``.  Each
chunk is reduced to exceedance counts before the next is drawn, so memory is
O(max(n, 2**18)) values, independent of ``reps``.  Bernoulli losses are
uniform-threshold draws, beta losses use ``Generator.beta``, and discrete
losses are ``Generator.choice``'s bits, drawn by comparison with its CDF at
a cost linear in the support size; changing any of these would invalidate
pinned fixtures, so they are part of the contract.  Each rhat is its row's
``mean(axis=1)``, bit for bit.  Bernoulli rows, and discrete rows with
n * max(x * D) < 2**53 (D the largest denominator of the support), are
counted from their uniforms with no loss matrix: their sums are exact, so
they do not depend on numpy's summation order; beta and other discrete rows
are averaged and do.  numpy is imported by the first draw, not by this
module, so commands that never draw start without it.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .baselines import bentkus_pvalue, hoeffding_tight_pvalue
from .binomial import (
    Record, _check_closed_unit, _check_open_unit, _check_positive_int, _check_weights,
)
from .prw import TestSpec, prw_pvalue

__all__ = [
    "LossDistribution",
    "McReport",
    "PVALUE_METHODS",
    "simulate_superuniformity",
    "simulate_power",
]

# Method id -> p-value function, in the CLI's column order.  Output keys
# (CLI columns, JSON fields) are the ids with "-" replaced by "_".
PVALUE_METHODS = {
    "prw": prw_pvalue,
    "hoeffding-tight": hoeffding_tight_pvalue,
    "bentkus": bentkus_pvalue,
}

# Losses drawn per chunk (2 MiB of float64); a chunk holds at least one row.
_CHUNK_VALUES = 1 << 18


def canonical_method(method: str) -> str:
    """Normalize a p-value method id; raise for anything unknown."""
    name = str(method).strip().lower().replace("_", "-")
    if name not in PVALUE_METHODS:
        raise ValueError(f"unknown p-value method {method!r}; choose from {tuple(PVALUE_METHODS)}")
    return name


class LossDistribution(Record):
    """A loss-generating law supported on [0, 1] with known analytic mean."""

    __slots__ = _fields = ("kind", "params", "mean")

    @classmethod
    def bernoulli(cls, p: float) -> "LossDistribution":
        p = _check_closed_unit(p, "bernoulli parameter")
        return cls(kind="bernoulli", params=(p,), mean=p)

    @classmethod
    def beta(cls, a: float, b: float) -> "LossDistribution":
        a = float(a)
        b = float(b)
        # a + b must not overflow, or the mean a / (a + b) is wrong or nan
        if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
            raise ValueError(f"beta shapes must be positive with a finite sum, got ({a!r}, {b!r})")
        return cls(kind="beta", params=(a, b), mean=a / (a + b))

    @classmethod
    def scaled_discrete(
        cls, support: Sequence[float], probs: Sequence[float]
    ) -> "LossDistribution":
        support = tuple(float(x) for x in support)
        probs = tuple(float(q) for q in probs)
        if not support or len(support) != len(probs):
            raise ValueError("support and probs must be non-empty and equal length")
        if any(not 0.0 <= x <= 1.0 for x in support):
            raise ValueError(f"support must lie within [0, 1], got {support}")
        _check_weights(probs, "probabilities")
        mean = math.fsum(x * q for x, q in zip(support, probs))
        return cls(kind="scaled-discrete", params=(support, probs), mean=mean)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw losses of the given shape from one generator stream."""
        if self.kind == "bernoulli":
            (p,) = self.params
            return (rng.random(size) < p).astype(float)
        if self.kind == "beta":
            a, b = self.params
            return rng.beta(a, b, size)
        # Generator.choice's bits and stream use: an index counts the CDF entries <= its uniform
        import numpy as np
        support, probs = self.params
        cdf = np.cumsum(probs)
        u = rng.random(size)
        index = np.zeros(u.shape, np.intp)
        for c in cdf[:-1] / cdf[-1]:
            index += u >= c
        return np.asarray(np.array(support).take(index))  # take gives a scalar at size ()

    def _row_means(self, rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
        """``sample(rng, (rows, n)).mean(axis=1)``, bit for bit, from the same stream.

        On the module docstring's lattice a row's partial sums are exact, so
        numpy's sum is sum(x * count_x); 2**53 Bernoulli losses never fit in memory.
        """
        if self.kind == "beta":
            return self.sample(rng, (rows, n)).mean(axis=1)
        import numpy as np
        count = np.min_scalar_type(n)  # the narrowest unsigned type that holds n, not intp
        if self.kind == "bernoulli":
            return (rng.random((rows, n)) < self.params[0]).sum(axis=1, dtype=count) / n
        support, probs = self.params
        ratios = [x.as_integer_ratio() for x in support]  # Python integers: D may be 2**1074
        den = max(d for _, d in ratios)
        if n * max(a * (den // d) for a, d in ratios) >= 1 << 53:
            return self.sample(rng, (rows, n)).mean(axis=1)
        cdf = np.cumsum(probs)
        u = rng.random((rows, n))
        # reach[i] counts a row's losses at index >= i: u >= sample's thresholds, which rise
        reach = [n, *((u >= c).sum(axis=1, dtype=count) for c in cdf[:-1] / cdf[-1]), 0]
        total = np.zeros(rows)  # an array even for a point mass, whose terms are scalars
        for x, at_least, beyond in zip(support, reach, reach[1:]):
            total += x * (at_least - beyond)
        return total / n


class McReport(Record):
    """Empirical exceedance frequencies P(p <= delta) over a delta grid."""

    __slots__ = _fields = ("delta_grid", "exceedance", "stderr", "reps", "seed")


def _exceedance_counts(
    dist: LossDistribution, spec: TestSpec, methods: Iterable[str], deltas: Sequence[float],
    reps: int, seed: int,
) -> dict[str, list[int]]:
    """How many replications have each method's p-value at most each delta.

    Every method sees the same losses.  numpy fills a block row after row
    from the stream, so the chunks, in order, are the rows of the single
    ``(reps, n)`` block draw; each is reduced to counts before the next.
    """
    if spec.n > sys.maxsize:  # the largest dimension of a numpy array
        raise ValueError(f"n must be at most {sys.maxsize}, got {spec.n}")
    if not hasattr(seed, "__index__") or operator.index(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    fns = {name: PVALUE_METHODS[name] for name in map(canonical_method, methods)}
    import numpy as np  # not at module level: commands that never draw never load it

    rng = np.random.default_rng(operator.index(seed))
    counts = {name: [0] * len(deltas) for name in fns}
    rows = max(1, _CHUNK_VALUES // spec.n)
    for start in range(0, reps, rows):
        rhats = dist._row_means(rng, min(rows, reps - start), spec.n)
        rhats = rhats.tolist()  # Python floats are cheaper to pass than np.float64
        for name, fn in fns.items():
            pvals = np.array([fn(r, spec) for r in rhats])
            counts[name] = [c + int((pvals <= d).sum()) for c, d in zip(counts[name], deltas)]
    return counts


def simulate_superuniformity(
    dist: LossDistribution,
    spec: TestSpec,
    method: str,
    delta_grid: Sequence[float],
    reps: int,
    seed: int,
) -> McReport:
    """Estimate P(p <= delta) under a true null across a grid of levels.

    Requires ``dist.mean > spec.alpha`` so the null actually holds; anything
    else would measure power, not validity.  Standard errors are the
    binomial plug-in ``sqrt(phat*(1-phat)/reps)``.
    """
    reps = _check_positive_int(reps, "reps")
    if not dist.mean > spec.alpha:
        raise ValueError(
            f"null hypothesis must hold: dist mean {dist.mean} must exceed alpha {spec.alpha}"
        )
    grid = tuple(_check_open_unit(d, "delta values") for d in delta_grid)
    if not grid:
        raise ValueError("delta_grid must be non-empty")
    (counts,) = _exceedance_counts(dist, spec, [method], grid, reps, seed).values()
    exceedance = tuple(c / reps for c in counts)
    stderr = tuple(math.sqrt(e * (1.0 - e) / reps) for e in exceedance)
    return McReport(
        delta_grid=grid, exceedance=exceedance, stderr=stderr, reps=reps, seed=int(seed)
    )


def simulate_power(
    dist: LossDistribution,
    spec: TestSpec,
    methods: Iterable[str],
    delta: float,
    reps: int,
    seed: int,
) -> dict[str, float]:
    """Rejection rate of each method at level delta under a true alternative.

    Every method sees the same sampled losses (a paired comparison), and
    requires ``dist.mean < spec.alpha``.
    """
    reps = _check_positive_int(reps, "reps")
    if not dist.mean < spec.alpha:
        raise ValueError(
            f"alternative must hold: dist mean {dist.mean} must be below alpha {spec.alpha}"
        )
    delta = _check_open_unit(delta, "delta")
    if isinstance(methods, str):
        raise ValueError(f"methods must be a sequence of method names, not the string {methods!r}")
    methods = tuple(methods)  # once: an iterator is truthy even when it is empty
    if not methods:
        raise ValueError("methods must be non-empty")
    counts = _exceedance_counts(dist, spec, methods, (delta,), reps, seed)
    return {name: count / reps for name, (count,) in counts.items()}
