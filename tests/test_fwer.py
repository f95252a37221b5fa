"""Tests for the FWER procedures."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prwtest.fwer import FwerOutcome, FwerPlan, bonferroni, fallback, fixed_sequence

PROCEDURES = (fixed_sequence, fallback, bonferroni)


def plan(pvalues, delta=0.05, weights=None):
    return FwerPlan(pvalues=tuple(pvalues), delta=delta, weights=weights)


class TestPlanValidation:
    def test_empty(self):
        with pytest.raises(ValueError):
            plan([])

    @pytest.mark.parametrize("p", [-0.1, 1.1, float("nan")])
    def test_pvalue_range(self, p):
        with pytest.raises(ValueError):
            plan([0.5, p])

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1.0])
    def test_delta_range(self, delta):
        with pytest.raises(ValueError):
            plan([0.5], delta=delta)

    def test_weights_length(self):
        with pytest.raises(ValueError):
            plan([0.5, 0.5], weights=(1.0,))

    def test_weights_negative(self):
        with pytest.raises(ValueError):
            plan([0.5, 0.5], weights=(1.5, -0.5))

    def test_weights_sum(self):
        with pytest.raises(ValueError):
            plan([0.5, 0.5], weights=(0.5, 0.4))

    @pytest.mark.parametrize("weights", [(1e308, 1e308), (math.inf, 0.0)])
    def test_weights_summing_past_the_largest_double(self, weights):
        # fsum raises OverflowError on finite weights whose sum overflows;
        # they read as inf, as an inf weight does
        with pytest.raises(ValueError, match=r"^weights must sum to 1, got inf$"):
            plan([0.5, 0.5], weights=weights)

    def test_weights_sum_tolerance(self):
        plan([0.5, 0.5, 0.5], weights=(1 / 3, 1 / 3, 1 / 3))


class TestFixedSequence:
    def test_stops_at_first_failure(self):
        out = fixed_sequence(plan([0.01, 0.02, 0.9, 0.01]))
        assert out.rejected == (True, True, False, False)
        assert out.local_levels == (0.05, 0.05, 0.05, 0.0)

    def test_single_failure(self):
        out = fixed_sequence(plan([0.9]))
        assert out.rejected == (False,)
        assert out.local_levels == (0.05,)

    def test_tie_counts_as_rejection(self):
        out = fixed_sequence(plan([0.05, 0.05]))
        assert out.rejected == (True, True)

    def test_published_prw_prefix(self):
        # PRW p-values of the first four reference rows at the stated risks
        out = fixed_sequence(plan([0.0000, 0.0024, 0.0379, 0.2753]))
        assert out.rejected == (True, True, True, False)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=20))
    def test_rejections_form_prefix(self, pvalues):
        out = fixed_sequence(plan(pvalues, delta=0.3))
        flags = list(out.rejected)
        assert flags == sorted(flags, reverse=True)


class TestFallback:
    def test_requires_weights(self):
        with pytest.raises(ValueError):
            fallback(plan([0.5, 0.5]))

    def test_failure_forfeits_only_own_level(self):
        out = fallback(plan([0.9, 0.01], weights=(0.5, 0.5)))
        assert out.local_levels == (0.025, 0.025)
        assert out.rejected == (False, True)

    def test_carryover(self):
        out = fallback(plan([0.01, 0.04], weights=(0.5, 0.5)))
        assert out.local_levels == (0.025, 0.05)
        assert out.rejected == (True, True)

    def test_degenerate_weights_match_fixed_sequence(self):
        rng = random.Random(1234)
        for _ in range(300):
            m = rng.randint(1, 8)
            pvalues = [rng.random() for _ in range(m)]
            weights = (1.0,) + (0.0,) * (m - 1)
            fb = fallback(plan(pvalues, weights=weights))
            fs = fixed_sequence(plan(pvalues))
            assert fb.rejected == fs.rejected


class TestBonferroni:
    def test_threshold(self):
        out = bonferroni(plan([0.01, 0.03]))
        assert out.rejected == (True, False)
        assert out.local_levels == (0.025, 0.025)

    def test_single_hypothesis_plain_test(self):
        out = bonferroni(plan([0.049]))
        assert out.rejected == (True,)

    def test_order_irrelevant(self):
        a = bonferroni(plan([0.9, 0.001, 0.5]))
        b = bonferroni(plan([0.001, 0.5, 0.9]))
        assert sorted(a.rejected) == sorted(b.rejected)


@given(
    pvalues=st.lists(st.floats(0.0001, 1, allow_nan=False), min_size=1, max_size=10),
    delta=st.floats(0.01, 0.5),
    index=st.integers(0, 9),
    shrink=st.floats(0.0, 1.0),
)
def test_lowering_a_pvalue_never_shrinks_rejections(pvalues, delta, index, shrink):
    index %= len(pvalues)
    lowered = list(pvalues)
    lowered[index] = pvalues[index] * shrink
    m = len(pvalues)
    weights = (1.0 / m,) * m
    for proc in PROCEDURES:
        before = proc(FwerPlan(pvalues=tuple(pvalues), delta=delta, weights=weights))
        after = proc(FwerPlan(pvalues=tuple(lowered), delta=delta, weights=weights))
        for b, a in zip(before.rejected, after.rejected):
            assert a or not b  # rejection set only grows


@given(
    pvalues=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=10),
    delta=st.floats(0.01, 0.5),
)
def test_rejected_implies_p_at_most_level(pvalues, delta):
    m = len(pvalues)
    weights = (1.0 / m,) * m
    p = FwerPlan(pvalues=tuple(pvalues), delta=delta, weights=weights)
    for proc in PROCEDURES:
        out: FwerOutcome = proc(p)
        assert len(out.rejected) == len(out.local_levels) == m
        for pv, rej, level in zip(p.pvalues, out.rejected, out.local_levels):
            if rej:
                assert pv <= level
