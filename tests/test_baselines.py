"""Tests for the Bentkus and tight-Hoeffding p-values and the joint report."""

import math
from decimal import Decimal, ROUND_HALF_UP

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prwtest.baselines import (
    PValueReport,
    bentkus_pvalue,
    compare,
    hoeffding_tight_pvalue,
    kl_bernoulli,
)
from prwtest.binomial import BinomialParams, cdf
from prwtest.prw import TestSpec, prw_pvalue

REL = 1e-12
SPEC = TestSpec(n=100, alpha=0.1)
# (a, b) with a a few ulps below b
ULPS_BELOW = (0.6861108864707209, 0.6861108864707216)


def round4(x: float) -> str:
    return str(Decimal(x).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


class TestBentkus:
    def test_at_zero(self):
        got = bentkus_pvalue(0.0, SPEC)
        assert got == pytest.approx(7.220136793458129e-05, rel=REL)
        assert round4(got) == "0.0001"

    def test_published_step(self):
        # ceil(100 * 0.0606) = 7
        assert round4(bentkus_pvalue(0.0606, SPEC)) == "0.5601"

    def test_clamped_at_one(self):
        assert bentkus_pvalue(1.0, SPEC) == 1.0

    def test_unclamped_exceeds_one(self):
        assert bentkus_pvalue(1.0, SPEC, clamp=False) == pytest.approx(math.e, rel=REL)

    def test_shares_snapped_ceiling(self):
        # n*rhat = 7.000000000000001 must stay on the k=7 step
        assert bentkus_pvalue(0.07, SPEC) == bentkus_pvalue(0.065, SPEC)

    @pytest.mark.parametrize("rhat", [-0.1, 1.5, float("nan")])
    def test_domain(self, rhat):
        with pytest.raises(ValueError):
            bentkus_pvalue(rhat, SPEC)


class TestKlBernoulli:
    def test_zero_at_equality(self):
        assert kl_bernoulli(0.1, 0.1) == 0.0
        assert kl_bernoulli(0.73, 0.73) == 0.0

    def test_zero_a_few_ulps_below_reference(self):
        # the two log terms cancel to -5.8e-17 in floating point
        assert kl_bernoulli(ULPS_BELOW[0], ULPS_BELOW[1]) == 0.0

    def test_left_endpoint(self):
        # -log(1 - 0.1) with 0.1 as its exact double
        assert kl_bernoulli(0.0, 0.1) == pytest.approx(0.10536051565782631, rel=REL)

    def test_right_endpoint(self):
        assert kl_bernoulli(1.0, 0.25) == pytest.approx(-math.log(0.25), rel=REL)

    def test_frozen_interior_value(self):
        assert kl_bernoulli(0.0152, 0.1) == pytest.approx(0.060040249286769744, rel=REL)

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_degenerate_reference_rejected(self, b):
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, b)

    @pytest.mark.parametrize("a", [-0.01, 1.01])
    def test_a_domain(self, a):
        with pytest.raises(ValueError):
            kl_bernoulli(a, 0.5)

    @given(
        a=st.floats(0, 1, allow_nan=False),
        b=st.floats(1e-9, 1 - 1e-9, allow_nan=False),
    )
    def test_non_negative(self, a, b):
        assert kl_bernoulli(a, b) >= 0.0


class TestHoeffdingTight:
    def test_frozen_value(self):
        got = hoeffding_tight_pvalue(0.0667, SPEC)
        assert got == pytest.approx(0.5017060682921758, rel=REL)

    def test_published_value_at_grid_point(self):
        # the published 0.5010 cell sits at the last default-grid value,
        # which rounds to 0.0667 but is not equal to it
        assert round4(hoeffding_tight_pvalue(0.0666666704, SPEC)) == "0.5010"

    def test_one_a_few_ulps_below_alpha(self):
        rhat, alpha = ULPS_BELOW
        assert hoeffding_tight_pvalue(rhat, TestSpec(n=10, alpha=alpha)) == 1.0
        assert compare(rhat, TestSpec(n=10, alpha=alpha)).hoeffding_tight == 1.0

    def test_one_at_and_above_alpha(self):
        assert hoeffding_tight_pvalue(0.1, SPEC) == 1.0
        assert hoeffding_tight_pvalue(0.5, SPEC) == 1.0
        assert hoeffding_tight_pvalue(1.0, SPEC) == 1.0

    def test_at_zero(self):
        got = hoeffding_tight_pvalue(0.0, SPEC)
        assert got == pytest.approx(2.656139888758746e-05, rel=REL)
        assert round4(got) == "0.0000"

    def test_strictly_decreasing_below_alpha(self):
        grid = [i * 0.001 for i in range(100)]  # 0 .. 0.099
        values = [hoeffding_tight_pvalue(r, SPEC) for r in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_smooth_not_stepped(self):
        assert hoeffding_tight_pvalue(0.041, SPEC) != hoeffding_tight_pvalue(0.049, SPEC)


class TestCompare:
    def test_frozen_triple_mid(self):
        rep = compare(0.0409, SPEC)
        assert rep.prw == pytest.approx(0.1093960843253642, rel=REL)
        assert rep.hoeffding_tight == pytest.approx(0.08687302925644824, rel=REL)
        assert rep.bentkus == pytest.approx(0.1565102042769531, rel=REL)

    def test_frozen_triple_low(self):
        rep = compare(0.0227, SPEC)
        assert rep.prw == pytest.approx(0.010859132153641234, rel=REL)
        assert rep.hoeffding_tight == pytest.approx(0.00921542151798283, rel=REL)
        assert rep.bentkus == pytest.approx(0.021301780540468877, rel=REL)

    def test_single_sample(self):
        # n*alpha <= 1 collapses the PRW domain to its boundary, hence 1
        rep = compare(0.0, TestSpec(n=1, alpha=0.5))
        assert rep.prw == 1.0
        assert rep.hoeffding_tight == pytest.approx(0.5, rel=REL)
        assert rep.bentkus == 1.0

    def test_report_validates_ranges(self):
        with pytest.raises(ValueError):
            PValueReport(rhat=0.1, alpha=0.1, n=10, prw=1.5, bentkus=0.5, hoeffding_tight=0.5)

    def test_fields_carried(self):
        rep = compare(0.03, SPEC)
        assert (rep.rhat, rep.alpha, rep.n) == (0.03, 0.1, 100)


class TestRegionOrdering:
    """PRW and Bentkus share one binomial CDF term; their ratio is factor/e."""

    @staticmethod
    def factor(k: int) -> float:
        return 0.1 * (100 - k) / (10 - k)

    def test_sign_agreement_unclamped(self):
        for k in range(10):
            raw_prw = self.factor(k) * cdf(BinomialParams(100, 0.1), k)
            raw_bent = math.e * cdf(BinomialParams(100, 0.1), k)
            assert (raw_prw < raw_bent) == (self.factor(k) < math.e)
            assert (raw_prw > raw_bent) == (self.factor(k) > math.e)

    def test_sign_agreement_in_reports(self):
        # restrict to steps where neither clamp binds
        for k in range(8):
            rhat = (k - 0.5) / 100 if k else 0.0
            rep = compare(rhat, SPEC)
            if rep.prw < 1.0 and rep.bentkus < 1.0:
                expected = self.factor(k) - math.e
                got = rep.prw - rep.bentkus
                assert (got < 0) == (expected < 0)


@given(
    r1=st.floats(0, 1, allow_nan=False),
    r2=st.floats(0, 1, allow_nan=False),
)
def test_all_methods_monotone_in_rhat(r1, r2):
    lo, hi = sorted((r1, r2))
    for fn in (prw_pvalue, bentkus_pvalue, hoeffding_tight_pvalue):
        assert fn(lo, SPEC) <= fn(hi, SPEC) + 1e-15


@given(rhat=st.floats(0, 1, allow_nan=False))
def test_all_methods_in_unit_interval(rhat):
    rep = compare(rhat, SPEC)
    for v in (rep.prw, rep.bentkus, rep.hoeffding_tight):
        assert 0.0 <= v <= 1.0
