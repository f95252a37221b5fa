"""Family-wise error rate procedures over ordered families of p-values.

All three procedures consume valid (super-uniform) p-values in a
user-specified a-priori order and are agnostic to which method produced
them.  Ties at the local level count as rejections (``<=``), matching the
super-uniform convention P(p <= delta) <= delta.
"""

from __future__ import annotations

from typing import Optional

from .binomial import Record, _check_open_unit, _check_weights

__all__ = ["FwerPlan", "FwerOutcome", "fixed_sequence", "fallback", "bonferroni"]


class FwerPlan(Record):
    """Ordered family of hypotheses: p-values, global level, optional weights.

    Weights are only consumed by the fallback procedure; they must be
    non-negative and sum to 1.
    """

    __slots__ = _fields = ("pvalues", "delta", "weights")

    def __init__(
        self, pvalues: tuple[float, ...], delta: float, weights: Optional[tuple[float, ...]] = None
    ) -> None:
        pvalues = tuple(float(p) for p in pvalues)
        if not pvalues:
            raise ValueError("plan must contain at least one hypothesis")
        for i, p in enumerate(pvalues):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p-value at position {i} must lie in [0, 1], got {p!r}")
        delta = _check_open_unit(delta, "delta")
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(pvalues):
                raise ValueError(
                    f"weights length {len(weights)} != number of hypotheses {len(pvalues)}"
                )
            _check_weights(weights, "weights")
        super().__init__(pvalues, delta, weights)


class FwerOutcome(Record):
    """Per-hypothesis rejection flags and the local level each was tested at."""

    __slots__ = _fields = ("rejected", "local_levels")


def fixed_sequence(plan: FwerPlan) -> FwerOutcome:
    """Test hypotheses in order, each at the full level, stopping at the first failure.

    Hypotheses after the first non-rejection are not tested and carry local
    level 0.  Rejections therefore always form a prefix of the given order.
    Weights, if present, are ignored.
    """
    rejected: list[bool] = []
    for p in plan.pvalues:
        rejected.append(p <= plan.delta)
        if not rejected[-1]:
            break
    untested = len(plan.pvalues) - len(rejected)
    levels = (plan.delta,) * len(rejected) + (0.0,) * untested
    return FwerOutcome(rejected=tuple(rejected) + (False,) * untested, local_levels=levels)


def fallback(plan: FwerPlan) -> FwerOutcome:
    """Weighted fallback procedure with single-successor level carryover.

    Hypothesis i is tested at ``delta*w_i`` plus, if its predecessor was
    rejected, the predecessor's whole local level.  A non-rejection forfeits
    only that hypothesis's level; later hypotheses still receive their own
    weighted share.
    """
    if plan.weights is None:
        raise ValueError("fallback requires weights")
    rejected: list[bool] = []
    levels: list[float] = []
    carry = 0.0
    for p, w in zip(plan.pvalues, plan.weights):
        level = plan.delta * w + carry
        levels.append(level)
        rejected.append(p <= level)
        carry = level if rejected[-1] else 0.0
    return FwerOutcome(rejected=tuple(rejected), local_levels=tuple(levels))


def bonferroni(plan: FwerPlan) -> FwerOutcome:
    """Reject hypothesis i iff ``p_i <= delta / m``; order plays no role."""
    m = len(plan.pvalues)
    level = plan.delta / m
    rejected = tuple(p <= level for p in plan.pvalues)
    return FwerOutcome(rejected=rejected, local_levels=(level,) * m)
