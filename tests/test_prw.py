"""Tests for the tail bounds, the step bound g, its inverse, and the p-value.

Frozen constants were computed with the exact rational oracle (see
``_oracle.py``); where a published 4-decimal value exists it is asserted
post-rounding as well.
"""

import math
import random
from decimal import Decimal, ROUND_HALF_UP

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prwtest import prw
from prwtest.prw import (
    GBoundContext,
    TestSpec,
    ceil_scaled,
    g,
    g_inverse,
    gamma_r,
    lower_tail_bound,
    prw_pvalue,
    upper_tail_bound,
)

from _oracle import lower_tail_bound_exact, rel_err, upper_tail_bound_exact
from conftest import clear_law_caches, filled

REL = 1e-12


def round4(x: float) -> str:
    return str(Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


# Step values of the bound at (n=100, mean=0.1), frozen from the exact oracle.
STEPS_N100_A01 = {
    0: 2.656139888758746e-05,
    1: 0.0003538568585135263,
    2: 0.0023824836985530187,
    3: 0.010859132153641234,
    4: 0.03793773226156281,
    5: 0.1093960843253642,
    6: 0.27531569627432767,
    7: 0.638757671592431,
    8: 1.4760198864690608,
    9: 4.10674050552223,
}


class TestTestSpec:
    def test_valid(self):
        s = TestSpec(n=100, alpha=0.1)
        assert (s.n, s.alpha) == (100, 0.1)

    @pytest.mark.parametrize("n,alpha", [(0, 0.1), (10, 0.0), (10, 1.0), (10, float("nan"))])
    def test_invalid(self, n, alpha):
        with pytest.raises(ValueError):
            TestSpec(n=n, alpha=alpha)


class TestGammaR:
    def test_integer_product(self):
        assert gamma_r(100, 0.1) == 10

    def test_ceiling(self):
        assert gamma_r(100, 0.095) == 10

    def test_equals_n_near_one(self):
        assert gamma_r(7, 0.999) == 7

    def test_tiny_mean_clamps_to_one(self):
        assert gamma_r(100, 1e-12) == 1

    @pytest.mark.parametrize("mean", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, mean):
        with pytest.raises(ValueError):
            gamma_r(100, mean)

    @given(
        n=st.integers(1, 400),
        m1=st.floats(1e-9, 1 - 1e-9, allow_nan=False),
        m2=st.floats(1e-9, 1 - 1e-9, allow_nan=False),
    )
    def test_domain_nesting(self, n, m1, m2):
        lo, hi = sorted((m1, m2))
        assert gamma_r(n, lo) <= gamma_r(n, hi)


class TestCeilScaled:
    @pytest.mark.parametrize(
        "n,t,expected",
        [
            (100, 0.0015, 1),
            (100, 0.01, 1),     # snap: n*t = 1.0 exactly
            (100, 0.0106, 2),
            (100, 0.0, 0),
            (100, 1.0, 100),
        ],
    )
    def test_examples(self, n, t, expected):
        assert ceil_scaled(n, t) == expected

    def test_snap_absorbs_float_noise(self):
        # 0.07 * 100 = 7.000000000000001 in doubles; a raw ceiling would say 8
        assert 0.07 * 100 > 7
        assert ceil_scaled(100, 0.07) == 7

    def test_above_snap_width_is_ceiled(self):
        assert ceil_scaled(100, 0.0500000001) == 6

    @pytest.mark.parametrize("n, t, expected", [
        # n*t = 600000000.4, 30000000.02 and 300000.0002: fractions that a
        # purely relative slack of 1e-9 * n*t would have snapped down
        (2_000_000_000, 600000000.4 / 2e9, 600000001),
        (10**8, 600000000.4 / 2e9, 30000001),
        (10**6, 300000.0002 / 1e6, 300001),
    ])
    def test_snap_slack_is_capped_at_large_n(self, n, t, expected):
        assert ceil_scaled(n, t) == expected

    @pytest.mark.parametrize("n", [10**6, 10**8, 2 * 10**9, 2**40])
    def test_grid_points_snap_at_large_n(self, n):
        rng = random.Random(n)
        for j in [0, 1, n - 1, n] + [rng.randrange(n + 1) for _ in range(2000)]:
            assert ceil_scaled(n, j / n) == j, j

    @pytest.mark.parametrize("t", [-0.1, 1.0001, float("nan")])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            ceil_scaled(100, t)

    @pytest.mark.parametrize("n, t", [(100, 1e-12), (100, 5e-324), (1, 1e-9), (10**6, 1e-16)])
    def test_a_positive_product_never_snaps_to_zero(self, n, t):
        # n*t lies within the snap slack of 0; snapping it there would give
        # such a risk the p-value of rhat = 0
        assert 0.0 < n * t <= prw.SNAP_RTOL
        assert ceil_scaled(n, t) == 1
        assert ceil_scaled(n, 0.0) == 0

    @given(n=st.integers(1, 10**12), t=st.floats(0.0, 1e-6, allow_subnormal=True))
    def test_snap_keeps_zero_only_for_a_zero_product(self, n, t):
        assert (ceil_scaled(n, t) == 0) == (n * t == 0.0)


class TestUpperTailBound:
    def test_t_equals_n(self):
        # factor is exactly 1 there, leaving P(Bin(10, 0.5) = 10) = 2**-10
        assert upper_tail_bound(10, 0.5, 10) == pytest.approx(0.0009765625, rel=REL)

    def test_near_top(self):
        got = upper_tail_bound(100, 0.9, 99)
        assert got == pytest.approx(0.0003538568585135273, rel=REL)

    @pytest.mark.parametrize("t", [5, 10, -1, 101])
    def test_domain_error_outside_np_n(self, t):
        # n*p = 10, so valid t are 11..100
        with pytest.raises(ValueError):
            upper_tail_bound(100, 0.1, t)

    def test_lower_edge_is_open(self):
        upper_tail_bound(100, 0.1, 11)  # smallest valid t


class TestLowerTailBound:
    def test_factor_reduces_to_one_at_zero(self):
        got = lower_tail_bound(100, 0.1, 0)
        assert got == pytest.approx(2.656139888758746e-05, rel=REL)

    def test_first_step(self):
        got = lower_tail_bound(100, 0.1, 1)
        assert got == pytest.approx(0.0003538568585135263, rel=REL)
        assert round4(got) == "0.0004"

    def test_published_step(self):
        got = lower_tail_bound(100, 0.1, 7)
        assert got == pytest.approx(0.638757671592431, rel=REL)
        assert round4(got) == "0.6388"

    @pytest.mark.parametrize("k", [-1, 10, 11])
    def test_domain(self, k):
        with pytest.raises(ValueError):
            lower_tail_bound(100, 0.1, k)

    def test_top_valid_k_when_mean_non_integer(self):
        # n*mean = 9.5 -> valid k up to 9
        lower_tail_bound(100, 0.095, 9)
        with pytest.raises(ValueError):
            lower_tail_bound(100, 0.095, 10)


@given(
    n=st.integers(1, 400),
    mean=st.floats(1e-6, 1 - 1e-6, allow_nan=False),
    data=st.data(),
)
def test_tail_duality(n, mean, data):
    mean = 1.0 - (1.0 - mean)  # makes 1.0 - mean below exact (Sterbenz)
    gamma = gamma_r(n, mean)
    k = data.draw(st.integers(0, gamma - 1))
    assume(n * mean - k > 0.01)  # away from the factor's pole, where doubles run out
    lower = lower_tail_bound(n, mean, k)
    upper = upper_tail_bound(n, 1.0 - mean, n - k)
    assert lower == pytest.approx(upper, rel=1e-12)


def test_factors_near_pole_match_oracle():
    # t - n*p = 0.019 and n*mean - k = 0.0067 here; a factor built in floats
    # lost 1.2e-12 and 2.9e-12 relative to cancellation in its denominator
    p = 1 - 0.06695397537193148
    assert rel_err(upper_tail_bound(299, p, 279), upper_tail_bound_exact(299, p, 279)) < REL
    mean = 0.9755616414453229
    assert rel_err(lower_tail_bound(368, mean, 359), lower_tail_bound_exact(368, mean, 359)) < REL


class TestG:
    CTX = GBoundContext.from_mean(100, 0.1)

    def test_context_fields(self):
        assert self.CTX.gamma == 10
        assert self.CTX.t_max == pytest.approx(0.09)

    def test_context_consistency_enforced(self):
        # gamma and t_max are derived from (n, alpha), never passed in
        with pytest.raises(TypeError):
            TestSpec(n=100, alpha=0.1, gamma=9, t_max=0.08)

    def test_at_zero(self):
        assert g(0.0, self.CTX) == pytest.approx((1 - 0.1) ** 100, rel=REL)

    def test_published_value(self):
        assert round4(g(0.0303, self.CTX)) == "0.0379"

    def test_boundary_takes_max_with_one(self):
        got = g(0.09, self.CTX)
        assert got == pytest.approx(4.10674050552223, rel=REL)
        assert got >= 1.0

    def test_constant_within_step(self):
        assert g(0.041, self.CTX) == g(0.049, self.CTX)

    def test_strictly_increasing_across_steps(self):
        values = [g(k / 100, self.CTX) for k in range(10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_matches_step_table(self):
        for k in range(9):
            assert g(k / 100, self.CTX) == pytest.approx(STEPS_N100_A01[k], rel=REL)

    @pytest.mark.parametrize("t", [-0.001, 0.0901, 0.5, math.inf, math.nan])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            g(t, self.CTX)

    @pytest.mark.parametrize("n,mean", [(100, 0.1), (1, 0.5), (37, 0.42)])
    def test_from_mean_is_the_test_spec(self, n, mean):
        # the benchmark worker builds its g_inverse context this way
        ctx, spec = GBoundContext.from_mean(n, mean), TestSpec(n, mean)
        assert ctx == spec
        assert (ctx.gamma, ctx.t_max) == (spec.gamma, spec.t_max)

    def test_single_step_domain_pins_value_at_one(self):
        # gamma = 1 collapses the domain to {0}, where the boundary clamp applies
        ctx = GBoundContext.from_mean(1, 0.5)
        assert ctx.gamma == 1 and ctx.t_max == 0.0
        assert g(0.0, ctx) == 1.0

    def test_a_tiny_t_does_not_snap_onto_a_zero_boundary(self):
        # n*t = 5e-324 ceils to 1, past the domain {0}, and does not snap onto it
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 0\.0\], got 5e-324$"):
            g(5e-324, GBoundContext.from_mean(1, 0.5))


@given(
    n=st.integers(2, 300),
    m1=st.floats(0.01, 0.98, allow_nan=False),
    m2=st.floats(0.01, 0.98, allow_nan=False),
    frac=st.floats(0.0, 0.999),
)
def test_g_non_increasing_in_mean(n, m1, m2, frac):
    lo, hi = sorted((m1, m2))
    assume(hi > lo)
    ctx_lo = GBoundContext.from_mean(n, lo)
    assume(ctx_lo.gamma >= 2)
    t = frac * (ctx_lo.gamma - 1 - 1e-6) / n  # strictly inside [0, t_max)
    ctx_hi = GBoundContext.from_mean(n, hi)
    assert g(t, ctx_hi) <= g(t, ctx_lo) * (1 + 1e-11)


class TestGInverse:
    CTX = GBoundContext.from_mean(100, 0.1)

    def test_at_minimum_attainable(self):
        # equality with the smallest step value is admitted: t = 0 witnesses it
        assert g_inverse(g(0.0, self.CTX), self.CTX) == 0.0

    def test_midrange(self):
        # steps 0.2753 (k=6) and 0.6388 (k=7) straddle 0.5
        assert g_inverse(0.5, self.CTX) == pytest.approx(0.06)

    def test_boundary_never_qualifies(self):
        # steps at k=8 and k=9 already exceed 1, so 0.99 stops at the k=7 grid point
        assert g_inverse(0.99, self.CTX) == pytest.approx(0.07)
        assert g_inverse(0.99, self.CTX) < 0.09

    def test_below_minimum_raises(self):
        with pytest.raises(ValueError):
            g_inverse(1e-6, self.CTX)

    def test_single_step_domain_raises(self):
        with pytest.raises(ValueError):
            g_inverse(0.9, GBoundContext.from_mean(1, 0.5))

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, float("nan")])
    def test_domain(self, delta):
        with pytest.raises(ValueError) as exc:
            g_inverse(delta, self.CTX)
        assert str(exc.value) == f"delta must lie in (0, 1), got {delta!r}"


@given(
    n=st.integers(2, 300),
    mean=st.floats(0.01, 0.99, allow_nan=False),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_g_inverse_round_trip(n, mean, u):
    ctx = GBoundContext.from_mean(n, mean)
    assume(ctx.gamma >= 2)
    floor = g(0.0, ctx)  # the smallest value any grid point attains
    delta = floor + u * (1.0 - floor)
    assume(0.0 < delta < 1.0)
    t_star = g_inverse(delta, ctx)
    assert g(t_star, ctx) <= delta
    j_star = round(t_star * n)
    if j_star + 1 <= ctx.gamma - 1:
        assert g((j_star + 1) / n, ctx) > delta


def g_inverse_by_scan(delta, ctx):
    """The linear scan g_inverse replaced: the last grid point whose step is <= delta."""
    best = -1
    for j in range(ctx.gamma - 1):
        if lower_tail_bound(ctx.n, ctx.alpha, j) <= delta:
            best = j
    if best < 0:
        raise ValueError("no grid point qualifies")
    return best / ctx.n


def test_g_inverse_bisection_equals_scan():
    rng = random.Random(20240515)
    checked = underflowing = 0
    for _ in range(300):
        n = rng.choice((rng.randint(2, 60), rng.randint(2, 2000)))
        ctx = GBoundContext.from_mean(n, rng.uniform(0.001, 0.999))
        if ctx.gamma < 2:
            continue
        underflowing += lower_tail_bound(ctx.n, ctx.alpha, 0) == 0.0
        if rng.random() < 0.5:
            # exactly on a step value: ties must count as qualifying
            delta = lower_tail_bound(ctx.n, ctx.alpha, rng.randrange(ctx.gamma - 1))
        else:
            delta = 10.0 ** rng.uniform(-320, 0)
        if not 0.0 < delta < 1.0:
            continue
        checked += 1
        try:
            want = g_inverse_by_scan(delta, ctx)
        except ValueError:
            with pytest.raises(ValueError, match="below the smallest attainable"):
                g_inverse(delta, ctx)
            continue
        assert g_inverse(delta, ctx) == want, (n, ctx.alpha, delta)
    assert checked >= 200
    assert underflowing >= 20  # the draws reach contexts whose first steps are 0.0


def g_inverse_or_error(delta, spec):
    try:
        return g_inverse(delta, spec)
    except ValueError as exc:
        return str(exc)


@given(
    n=st.integers(2, 3000),
    alpha=st.floats(0.001, 0.999, allow_nan=False),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    step=st.none() | st.integers(0, 3000),
)
def test_g_inverse_reads_steps_by_index_and_equals_the_scan(n, alpha, delta, step):
    # the bisection reads step j of the law's record directly: no t = j/n goes
    # through g or the snap.  A drawn step puts delta on a step value, where
    # ties must count as qualifying
    spec = TestSpec(n, alpha)
    assume(spec.gamma >= 2)
    if step is not None:
        delta = lower_tail_bound(n, alpha, step % (spec.gamma - 1))
        assume(0.0 < delta < 1.0)
    try:
        want = g_inverse_by_scan(delta, spec)
    except ValueError:
        want = None

    def forbidden(*args):
        raise AssertionError("g_inverse went through g or _snapped_ceil")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prw, "g", forbidden)
        mp.setattr(prw, "_snapped_ceil", forbidden)
        got = g_inverse_or_error(delta, spec)
    if want is None:
        assert "below the smallest attainable" in got
    else:
        assert got == want, (n, alpha, delta)


@given(
    n=st.integers(1, 300),
    alpha=st.floats(0.001, 0.999, allow_nan=False),
    delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_g_inverse_on_filled_steps_equals_a_fresh_spec(n, alpha, delta):
    # the law's record holds every step left of the boundary from its window
    # edge lo on once prw_pvalue has visited the whole grid (a clamped capped
    # call reads no step, and a step below lo is 0.0 unstored), so the warm
    # bisection reads only stored values.  The fresh spec reads a new record
    clear_law_caches()
    warm = TestSpec(n, alpha)
    for j in range(n + 1):
        prw_pvalue(j / n, warm)
    if warm.gamma > 1:  # else every call is capped and no record is read
        assert filled(warm) == set(range(warm._steps[1], warm.gamma - 1))
    clear_law_caches()
    fresh = TestSpec(n, alpha)
    assert g_inverse_or_error(delta, warm) == g_inverse_or_error(delta, fresh)
    assert warm.gamma == 1 or fresh._steps is not warm._steps


class TestPrwPvalue:
    SPEC = TestSpec(n=100, alpha=0.1)

    def test_at_zero(self):
        got = prw_pvalue(0.0, self.SPEC)
        assert got == pytest.approx(2.656139888758746e-05, rel=REL)
        assert round4(got) == "0.0000"

    def test_interior_step(self):
        # ceil(100 * 0.05) snaps to 5, so this sits on the fifth step
        assert prw_pvalue(0.05, self.SPEC) == pytest.approx(0.1093960843253642, rel=REL)

    def test_capped_region_reports_one(self):
        assert prw_pvalue(0.95, self.SPEC) == 1.0
        assert prw_pvalue(0.09, self.SPEC) == 1.0

    def test_unclamped_diagnostic(self):
        raw = prw_pvalue(0.09, self.SPEC, clamp=False)
        assert raw == pytest.approx(4.10674050552223, rel=REL)

    def test_a_tiny_risk_reads_the_first_step_not_the_zero_snap(self):
        # n*rhat = 1e-10 ceils to step 1; the step at 0 is (1 - alpha)**n
        spec = TestSpec(n=100, alpha=0.1)
        got = prw_pvalue(1e-12, spec)
        assert got == prw_pvalue(0.01, spec) == lower_tail_bound(100, 0.1, 1)
        assert got == pytest.approx(STEPS_N100_A01[1], rel=REL)
        assert got > prw_pvalue(0.0, spec) == pytest.approx(0.9**100, rel=REL)

    @pytest.mark.parametrize("rhat", [-0.01, 1.01, float("nan")])
    def test_domain(self, rhat):
        with pytest.raises(ValueError):
            prw_pvalue(rhat, self.SPEC)

    @given(
        r1=st.floats(0, 1, allow_nan=False),
        r2=st.floats(0, 1, allow_nan=False),
    )
    def test_monotone_in_rhat(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert prw_pvalue(lo, self.SPEC) <= prw_pvalue(hi, self.SPEC) + 1e-15

    @given(
        n=st.integers(2, 200),
        a1=st.floats(0.02, 0.97, allow_nan=False),
        a2=st.floats(0.02, 0.97, allow_nan=False),
        frac=st.floats(0.0, 0.999),
    )
    def test_non_increasing_in_alpha(self, n, a1, a2, frac):
        lo, hi = sorted((a1, a2))
        assume(hi > lo)
        spec_lo = TestSpec(n=n, alpha=lo)
        spec_hi = TestSpec(n=n, alpha=hi)
        gamma_lo = gamma_r(n, lo)
        assume(gamma_lo >= 2)
        rhat = frac * (gamma_lo - 1 - 1e-6) / n  # strictly inside the smaller cap
        assert prw_pvalue(rhat, spec_hi) <= prw_pvalue(rhat, spec_lo) * (1 + 1e-11)
