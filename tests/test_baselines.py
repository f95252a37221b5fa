"""Tests for the Bentkus and tight-Hoeffding p-values and the joint report."""

import copy
import math
import pickle
import re
import sys
import threading
import tracemalloc
from collections import Counter
from decimal import Decimal, ROUND_HALF_UP

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prwtest.baselines import (
    PValueReport,
    bentkus_pvalue,
    compare,
    hoeffding_tight_pvalue,
    kl_bernoulli,
)
from prwtest.binomial import BinomialParams, cdf, sf
from prwtest import baselines, binomial, prw
from prwtest.prw import TestSpec, ceil_scaled, lower_tail_bound, prw_pvalue

from conftest import clear_law_caches, filled

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

    def test_a_tiny_risk_does_not_snap_to_zero(self):
        # n*rhat = 5e-324 ceils to 1, where cdf is 1; step 0 would read e/2
        assert bentkus_pvalue(5e-324, TestSpec(n=1, alpha=0.5), clamp=False) == math.e

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

    @pytest.mark.parametrize("b", [0.0, 1.0, -0.5, float("nan")])
    def test_degenerate_reference_rejected(self, b):
        with pytest.raises(ValueError) as exc:
            kl_bernoulli(0.5, b)
        assert str(exc.value) == f"b must lie in (0, 1), got {b!r}"

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
    def test_n_beyond_the_binomial_anchor(self):
        # exp(-n*KL) builds no binomial law, so n may exceed sys.maxsize
        spec = TestSpec(10**20, 0.1)
        assert hoeffding_tight_pvalue(0.1, spec) == 1.0
        assert hoeffding_tight_pvalue(0.0999, spec) == 0.0

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

    @pytest.mark.parametrize(
        "n, alpha", [(1, 0.5), (10, ULPS_BELOW[1]), (100, 0.1), (5000, 0.05), (10**6, 0.9)]
    )
    def test_bitwise_equal_to_the_clipped_formula(self, n, alpha):
        # returning 1.0 for rhat >= alpha skips a KL that is exactly 0.0 there
        spec = TestSpec(n, alpha)
        rhats = [alpha, math.nextafter(alpha, -math.inf), math.nextafter(alpha, math.inf)]
        rhats += [min(1.0, alpha + i * (1.0 - alpha) / 50) for i in range(51)]
        for rhat in rhats:
            expected = math.exp(-n * kl_bernoulli(min(rhat, alpha), alpha))
            assert hoeffding_tight_pvalue(rhat, spec) == expected, rhat


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
        for field in ("prw", "bentkus", "hoeffding_tight"):
            for value in (1.5, -0.25, float("nan")):
                pvalues = {"prw": 0.5, "bentkus": 0.5, "hoeffding_tight": 0.5, field: value}
                with pytest.raises(ValueError) as exc:
                    PValueReport(rhat=0.1, alpha=0.1, n=10, **pvalues)
                assert str(exc.value) == f"{field} p-value must lie in [0, 1], got {value!r}"

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

    @given(n=st.integers(1, 3000), alpha=st.floats(0.01, 0.9))
    @example(n=100, alpha=0.1)  # k_c = 6.56: PRW is the lower one up to rhat = 0.06
    def test_crossover_in_closed_form(self, n, alpha):
        # alpha(n - k)/(n alpha - k) < e  <=>  k < k_c, left of the boundary step
        spec = TestSpec(n, alpha)
        k_c = n * alpha * (math.e - 1) / (math.e - alpha)
        for k in range(spec.gamma - 1):
            raw_bentkus = bentkus_pvalue(k / n, spec, clamp=False)
            if raw_bentkus == 0.0 or abs(k - k_c) <= 1e-9 * max(1.0, k_c):  # underflow, or a tie
                continue
            assert (prw_pvalue(k / n, spec, clamp=False) < raw_bentkus) == (k < k_c)

    @staticmethod
    def cells_against_tight_hoeffding(n: int, alpha: float) -> str:
        """One letter per k in [1, gamma - 2]: PRW's unclamped step p_k, constant on the cell
        ((k - 1)/n, k/n], against tight Hoeffding, which rises inside it.  Z: p_k and HT(k/n)
        are both 0.0; W: p_k is below HT at (k - 1)/n, so PRW is lower on the whole cell;
        P: below HT(k/n) only, so PRW is lower on a right part of it; L: nowhere lower."""
        spec = TestSpec(n, alpha)
        letters = []
        for k in range(1, spec.gamma - 1):
            step = prw_pvalue(k / n, spec, clamp=False)
            right = hoeffding_tight_pvalue(k / n, spec)
            if step == 0.0 == right:
                letters.append("Z")
            elif step < hoeffding_tight_pvalue((k - 1) / n, spec):
                letters.append("W")
            else:
                letters.append("P" if step < right else "L")
        return "".join(letters)

    @given(n=st.integers(1, 3000), alpha=st.floats(0.01, 0.9))
    @example(n=100, alpha=0.1)
    @example(n=10_000, alpha=0.1)  # ZPWPL: the first 87 steps underflow with HT(k/n)
    def test_cells_against_tight_hoeffding_follow_one_shape(self, n, alpha):
        # Leftmost, both underflow or PRW loses; then PRW wins on part of a cell, on whole
        # cells, on part again; near alpha tight Hoeffding is lower, and k = 1 may lose
        assert re.fullmatch(r"Z*L?P*W*P*L*", self.cells_against_tight_hoeffding(n, alpha))

    @pytest.mark.parametrize("n, alpha, band", [
        (100, 0.1, None), (1000, 0.1, (16, 78)), (100, 0.5, (15, 40)),
    ])
    def test_whole_cell_band_stated_in_readme(self, n, alpha, band):
        cells = self.cells_against_tight_hoeffding(n, alpha)
        wins = [k for k, letter in enumerate(cells, start=1) if letter == "W"]
        assert wins == (list(range(band[0], band[1] + 1)) if band else [])


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


def snap_slack(nt: float) -> float:
    return min(prw.SNAP_RTOL * max(1.0, nt), prw.SNAP_ATOL)


def reference_ceil(n: int, t: float) -> int:
    """ceil(n*t), snapped to the nearest integer within snap_slack; a positive
    n*t never snaps to 0."""
    nt = n * t
    snaps = abs(nt - round(nt)) <= snap_slack(nt) and (round(nt) > 0 or nt == 0)
    return round(nt) if snaps else math.ceil(nt)


def prw_reference(rhat: float, spec: TestSpec) -> float:
    """Unmemoised raw PRW value: the tail bound at the snapped ceiling of the
    capped risk, clamped below by 1 where n*t snaps to gamma - 1 or its
    ceiling lies past gamma - 1."""
    t = min(rhat, spec.t_max)
    boundary = spec.gamma - 1
    nt = spec.n * t
    if abs(nt - boundary) <= snap_slack(nt) or reference_ceil(spec.n, t) > boundary:
        return max(1.0, lower_tail_bound(spec.n, spec.alpha, boundary))
    return lower_tail_bound(spec.n, spec.alpha, reference_ceil(spec.n, t))


def bentkus_reference(rhat: float, spec: TestSpec) -> float:
    """Unmemoised raw Bentkus value at the snapped ceiling."""
    return math.e * cdf(BinomialParams(spec.n, spec.alpha), reference_ceil(spec.n, rhat))


def edge_points(spec: TestSpec) -> list[float]:
    """t_max a few ulps either side, and n*t just inside and outside the
    snap tolerance of the boundary gamma - 1."""
    points = []
    for direction in (0.0, 1.0):
        x = spec.t_max
        for _ in range(3):
            x = math.nextafter(x, direction)
            points.append(x)
    boundary = spec.gamma - 1
    tol = snap_slack(boundary)
    for f in (0.5, 0.999, 1.001, 2.0):
        points += [(boundary - f * tol) / spec.n, (boundary + f * tol) / spec.n]
    return [x for x in points if 0.0 <= x <= 1.0]


def assert_memo_matches_reference(spec: TestSpec, points) -> None:
    """Clamped and raw values, on the first and on a repeat call, equal the
    unmemoised references bit for bit.  The first pass alternates which of
    the two calls fills an entry.  A clamped PRW call at rhat >= t_max is 1.0
    exactly, and the law's record holds PRW steps only up to gamma - 1."""
    for repeat in (False, True):
        for i, rhat in enumerate(points):
            for fn, ref in ((prw_pvalue, prw_reference), (bentkus_pvalue, bentkus_reference)):
                want = ref(rhat, spec)
                calls = [(fn(rhat, spec), min(1.0, want)),
                         (fn(rhat, spec, clamp=False), want)]
                if i % 2 and not repeat:
                    calls.reverse()
                for got, expected in calls:
                    assert got == expected, (fn.__name__, spec, rhat, repeat)
            if rhat >= spec.t_max:
                assert prw_pvalue(rhat, spec) == 1.0, (spec, rhat, repeat)
    if spec._steps is not None:
        assert max(filled(spec), default=0) <= spec.gamma - 1, spec


class TestStepMemo:
    @pytest.mark.parametrize("n, alpha", [(100, 0.1), (1000, 0.1), (400, 0.3), (2, 0.7), (1, 0.5)])
    def test_memoised_values_equal_unmemoised_reference(self, cold, n, alpha):
        spec = TestSpec(n=n, alpha=alpha)
        on_grid = [j / n for j in range(n + 1)]
        off_grid = [(j + 0.37) / n for j in range(n)]
        assert_memo_matches_reference(spec, on_grid + off_grid + edge_points(spec))

    @given(
        n=st.integers(1, 300),
        alpha=st.floats(0.001, 0.999, allow_nan=False),
        rhats=st.lists(st.floats(0, 1, allow_nan=False), max_size=20),
    )
    def test_memo_matches_reference_on_drawn_specs(self, n, alpha, rhats):
        spec = TestSpec(n=n, alpha=alpha)
        assert_memo_matches_reference(spec, rhats + edge_points(spec))

    @pytest.mark.parametrize("n, alpha", [
        (10_000, 0.25), (10_000, 0.1234567), (10**6, 0.1), (10**6, 0.0123456789),
    ])
    def test_large_n_steps_equal_unmemoised_reference(self, cold, n, alpha):
        # n*t_max > 1000, so the snap slack is SNAP_ATOL, not SNAP_RTOL * n*t
        spec = TestSpec(n=n, alpha=alpha)
        boundary = spec.gamma - 1
        assert prw.SNAP_RTOL * boundary > prw.SNAP_ATOL
        points = [1.0, spec.t_max + 1 / n, 0.0, 1 / n, 0.37 / n]
        for j in (boundary - 2, boundary - 1, boundary):
            x = y = j / n
            for _ in range(3):
                x, y = math.nextafter(x, 0.0), math.nextafter(y, 1.0)
                points += [x, y]
            for f in (0.5, 0.999, 1.001, 2.0):
                points += [(j - f * prw.SNAP_ATOL) / n, (j + f * prw.SNAP_ATOL) / n]
        assert_memo_matches_reference(spec, points + edge_points(spec))

    def test_a_ceiling_past_the_boundary_reads_the_boundary(self, cold, monkeypatch):
        # n*t_max = 100 * 0.07 = 7.000000000000001 at gamma = 8.  With no
        # absolute slack it does not snap and ceils past gamma - 1, as n*t_max
        # itself can past n = 4.5e9; the boundary value is read
        monkeypatch.setattr(prw, "SNAP_ATOL", 0.0)
        spec = TestSpec(n=100, alpha=0.075)
        assert (spec.gamma, spec.t_max, ceil_scaled(100, spec.t_max)) == (8, 0.07, 8)
        want = max(1.0, lower_tail_bound(100, 0.075, 7))
        assert prw_pvalue(spec.t_max, spec, clamp=False) == want
        assert prw_pvalue(0.5, spec, clamp=False) == want
        assert_memo_matches_reference(spec, [0.069, 0.07, 0.0700000001, 1.0])
        # the same value when interior calls, one of them on step 7, come first
        # on a cold law
        clear_law_caches()
        fresh = TestSpec(n=100, alpha=0.075)
        assert_memo_matches_reference(fresh, [0.069, 0.0699, 0.05, 0.0700000001, 0.07])
        law, lo, steps, _ = fresh._steps
        assert steps[7 - lo] == lower_tail_bound(100, 0.075, 7)
        assert (prw_pvalue(1.0, fresh, clamp=False), prw_pvalue(1.0, fresh)) == (want, 1.0)

    @pytest.mark.parametrize("n, alpha", [(100, 0.1), (1000, 0.1), (2, 0.7), (1, 0.5)])
    def test_capped_value_filled_by_the_first_call(self, cold, n, alpha):
        spec = TestSpec(n=n, alpha=alpha)
        assert_memo_matches_reference(spec, [1.0, spec.t_max, 0.0, 0.5 * spec.t_max, 0.999])

    @pytest.mark.parametrize("n, alpha", [(100, 0.1), (1000, 0.1), (2, 0.7), (1, 0.5)])
    def test_capped_value_filled_after_interior_calls(self, cold, n, alpha):
        # interior calls fill steps up to gamma - 1; a capped call then reads
        # step gamma - 1 from the record only when unclamped, clamped below by 1
        spec = TestSpec(n=n, alpha=alpha)
        interior = [j / n for j in range(spec.gamma - 1)] + [math.nextafter(spec.t_max, 0.0)]
        assert_memo_matches_reference(spec, [r for r in interior if r < spec.t_max] + [1.0])
        steps = spec._steps[2].tobytes()
        assert prw_pvalue(1.0, spec) == 1.0 and spec._steps[2].tobytes() == steps
        assert prw_pvalue(1.0, spec, clamp=False) == prw_reference(1.0, spec) >= 1.0

    def test_unclamped_first_call_stores_the_raw_value(self, cold):
        spec = TestSpec(n=100, alpha=0.1)
        raw = prw_pvalue(0.5, spec, clamp=False)
        law, lo, steps, _ = spec._steps
        assert raw == steps[9 - lo] == lower_tail_bound(100, 0.1, 9) > 1.0
        assert filled(spec) == {9}
        assert (prw_pvalue(0.5, spec), prw_pvalue(0.09, spec, clamp=False)) == (1.0, raw)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda spec: pickle.loads(pickle.dumps(spec)),
    ])
    def test_a_copy_of_a_warm_spec_starts_empty_with_the_same_bits(self, cold, clone):
        # the copy's slot starts empty, and its first read finds the record
        # its law already has: the warm spec's, with every step it filled
        warm = TestSpec(n=100, alpha=0.1)
        points = [0.0, 0.031, 0.05, 0.0899, 0.09, 0.5, 1.0]
        want = [(prw_pvalue(r, warm, clamp=c), bentkus_pvalue(r, warm, clamp=c))
                for r in points for c in (True, False)]
        spec = clone(warm)
        assert spec == warm
        assert spec._steps is None
        got = [(prw_pvalue(r, spec, clamp=c), bentkus_pvalue(r, spec, clamp=c))
               for r in points for c in (True, False)]
        assert got == want
        assert spec._steps is warm._steps
        assert_memo_matches_reference(clone(warm), points)

    @pytest.mark.parametrize("order", [(0.3, 0.5), (0.5, 0.3)])
    def test_only_the_snapped_boundary_is_clamped_below_by_one(self, order):
        # At (2, 0.7) both 0.3 and 0.5 have ceiling 1 = gamma - 1, but only
        # 0.5 snaps onto the boundary; 0.3 keeps the raw step value
        spec = TestSpec(n=2, alpha=0.7)
        want = {0.3: 0.8925000000000003, 0.5: 1.0}
        for rhat in order + order:
            assert prw_pvalue(rhat, spec, clamp=False) == want[rhat]

    def test_a_sweep_keeps_its_law_record_within_one_and_a_half_times_the_table(self, cold):
        # one spec over 1e5 grid points at n = 1e6: 86 602 of them lie below
        # the window edge lo and store nothing, the rest one PRW double each;
        # Bentkus stores no step, so the record is about one table half
        n, alpha = 10**6, 0.1
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            binomial._half(n, alpha, binomial._BELOW)  # what a PRW query builds
            table = tracemalloc.get_traced_memory()[0] - before
            spec = TestSpec(n, alpha)
            for j in range(100_000):
                prw_pvalue(j / n, spec)
                bentkus_pvalue(j / n, spec)
            record = tracemalloc.get_traced_memory()[0] - before - table
        finally:
            tracemalloc.stop()
        lo = spec._steps[1]
        # the last point, t_max, is capped and reads no step
        assert (lo, len(filled(spec))) == (86_602, 100_000 - 1 - 86_602)
        assert 8 * (100_000 - lo) <= table and record <= 1.5 * table

    def test_memo_leaves_equality_hash_and_repr_alone(self):
        queried, fresh = TestSpec(n=100, alpha=0.1), TestSpec(n=100, alpha=0.1)
        prw_pvalue(0.05, queried)
        bentkus_pvalue(0.05, queried)
        assert queried == fresh
        assert hash(queried) == hash(fresh)
        assert repr(queried) == repr(fresh) == "TestSpec(n=100, alpha=0.1, gamma=10, t_max=0.09)"


class TestCdfBindings:
    """A cold PRW step calls ``cdf`` once, through the module binding
    ``prw.cdf``, and every Bentkus call below its cap, cold or warm, once
    through ``baselines.cdf``, so that a wrapper set on that binding sees
    every tail query; warm PRW steps, PRW steps below the law's window and
    clamped capped calls make no call."""

    @pytest.fixture
    def calls(self, cold, monkeypatch):
        counts = Counter()
        for module in (prw, baselines):
            def counting(params, k, name=module.__name__, inner=module.cdf):
                counts[name] += 1
                return inner(params, k)
            monkeypatch.setattr(module, "cdf", counting)
        return counts

    def test_cold_prw_step(self, calls):
        spec = TestSpec(n=100, alpha=0.1)
        assert prw_pvalue(0.05, spec) == lower_tail_bound(100, 0.1, 5)
        assert calls == {"prwtest.prw": 2}  # the step and lower_tail_bound itself
        calls.clear()
        prw_pvalue(0.03, TestSpec(n=100, alpha=0.1))
        assert calls == {"prwtest.prw": 1}

    def test_cold_bentkus_step(self, calls):
        spec = TestSpec(n=100, alpha=0.1)
        prw_pvalue(0.05, spec)  # builds the spec's law; Bentkus still queries cdf
        calls.clear()
        bentkus_pvalue(0.05, spec)
        assert calls == {"prwtest.baselines": 1}

    def test_cold_capped_call_queries_its_step_once(self, calls):
        # clamped, a capped call is 1 by construction; unclamped, it reads the
        # boundary step g(t_max), cold once
        want = lower_tail_bound(100, 0.1, 9)
        calls.clear()
        spec = TestSpec(n=100, alpha=0.1)
        assert (prw_pvalue(1.0, spec), prw_pvalue(spec.t_max, spec)) == (1.0, 1.0)
        assert calls == {}
        for rhat in (1.0, spec.t_max, 0.5):
            assert prw_pvalue(rhat, spec, clamp=False) == want
        assert calls == {"prwtest.prw": 1}

    def test_warm_prw_and_capped_calls_make_none(self, calls):
        # at (100, 0.1) t_max = 0.09 and Bentkus's cap is 9, so every clamped
        # Bentkus call from rhat 0.0899 on is capped
        spec = TestSpec(n=100, alpha=0.1)
        for rhat in (0.0, 0.05, 0.0899, 0.09, 0.5, 1.0):
            for clamp in (True, False):
                prw_pvalue(rhat, spec, clamp=clamp)
                bentkus_pvalue(rhat, spec, clamp=clamp)
        calls.clear()
        for rhat in (0.0, 0.049, 0.05, 0.0899, 0.09, 0.5, 0.4999, 1.0):
            for clamp in (True, False):
                prw_pvalue(rhat, spec, clamp=clamp)
        for rhat in (0.0899, 0.09, 0.5, 0.4999, 1.0):
            assert bentkus_pvalue(rhat, spec) == 1.0
        assert calls == {}

    @pytest.mark.parametrize("n, alpha, ks", [
        (100, 0.1, range(101)),
        (15, 0.1, range(16)),  # the cap is the mode, 1
        (10, 0.05, range(11)),  # m = 0: the cap comes from the half above the mode
        (10**6, 0.1, (0, 1, 50_000, 86_601, 86_602, 99_999, 100_000, 100_001, 999_999, 10**6)),
    ])
    def test_each_uncapped_bentkus_call_queries_cdf_once(self, calls, n, alpha, ks):
        # cold or warm, below the record window (lo = 86 602 at n = 1e6), up
        # to the mode or past it: a Bentkus call that is not clamped at or past
        # the cap is e * cdf, read by one query; Bentkus stores no step
        law, spec = BinomialParams(n, alpha), TestSpec(n, alpha)
        assert bentkus_pvalue(1.0, spec) == 1.0 and calls == {}  # finds the cap, no query
        cap = spec._steps[3]
        for _ in ("cold", "warm"):
            for k in ks:
                raw = math.e * cdf(law, k)
                for clamp in (True, False):
                    calls.clear()
                    got = bentkus_pvalue(k / n, spec, clamp=clamp)
                    if clamp and k >= cap:
                        assert (got, calls) == (1.0, {}), k
                    else:
                        assert (got.hex(), calls) == (raw.hex(), {"prwtest.baselines": 1}), k

    def test_clamped_calls_at_or_past_the_cap_make_none(self, calls):
        # at (100, 0.1) the cap is 9: e * cdf(8) < 1 <= e * cdf(9)
        spec = TestSpec(n=100, alpha=0.1)
        for rhat in (0.09, 0.0899, 0.5, 1.0):
            assert bentkus_pvalue(rhat, spec) == 1.0
        assert (calls, spec._steps[3]) == ({}, 9)
        assert bentkus_pvalue(0.08, spec) == math.e * cdf(BinomialParams(100, 0.1), 8) < 1.0
        assert calls == {"prwtest.baselines": 1}

    def test_a_new_spec_reads_the_steps_its_law_record_holds(self, calls):
        # PRW's steps up to the mode, 500; Bentkus reads its cap from the record
        # and queries cdf on each call below it, as on the first spec
        first = TestSpec(5000, 0.1)
        rhats = [j / 5000 for j in range(0, 501, 3)] + [(j + 0.37) / 5000 for j in range(400, 500)]
        want = [(prw_pvalue(r, first, clamp=c), bentkus_pvalue(r, first, clamp=c))
                for r in rhats for c in (True, False)]
        assert calls["prwtest.prw"] > 100 and calls["prwtest.baselines"] > 100
        calls.clear()
        fresh = TestSpec(5000, 0.1)
        got = [(prw_pvalue(r, fresh, clamp=c), bentkus_pvalue(r, fresh, clamp=c))
               for r in rhats for c in (True, False)]
        assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]
        queried = sum(not c or b < 1.0 for (_, b), c in zip(got, [True, False] * len(rhats)))
        assert calls == {"prwtest.baselines": queried} and fresh._steps is first._steps

    def test_steps_below_the_record_window_are_zero_with_no_tail_query(self, calls):
        n, alpha = 10**6, 0.1
        spec = TestSpec(n, alpha)
        prw_pvalue(0.0999, spec)  # reads the record, whose window starts at lo
        law, lo, _, _ = spec._steps
        assert lo == 86_602
        calls.clear()
        ks = (0, 1, 50_000, lo - 1)
        for k in ks:
            for clamp in (True, False):
                assert prw_pvalue(k / n, spec, clamp=clamp).hex() == "0x0.0p+0", k
        assert calls == {}
        for k in ks:  # the unstored value is the formula's, as is Bentkus's
            step = lower_tail_bound(n, alpha, k)
            assert step.hex() == (math.e * cdf(law, k)).hex() == "0x0.0p+0", k


class TestBentkusCap:
    """The law's cap is the first k with e * cdf(k) >= 1, so a clamped Bentkus
    step from it on is 1 and every other step is its raw value."""

    @given(n=st.integers(1, 20_000), alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(n=1, alpha=0.5)  # the cap, 0, lies below the mode, 1
    @example(n=10, alpha=0.05)  # m = 0: the cap comes from the half above the mode
    @example(n=15, alpha=0.1)  # e * cdf(m - 1) < 1: the cap is the mode, 1
    def test_cap_is_the_first_step_at_one(self, n, alpha):
        law = BinomialParams(n, alpha)
        spec = TestSpec(n, alpha)
        bentkus_pvalue(1.0, spec)  # the first clamped call finds the law's cap
        cap = spec._steps[3]
        raw = [math.e * cdf(law, k) for k in range(n + 1)]
        assert all(x < 1.0 for x in raw[:cap]) and all(x >= 1.0 for x in raw[cap:])
        for k in (cap - 1, cap, cap + 1):
            if 0 <= k <= n:
                for clamp in (True, False):
                    want = min(1.0, raw[k]) if clamp else raw[k]
                    got = bentkus_pvalue(k / n, TestSpec(n, alpha), clamp=clamp)
                    assert got.hex() == want.hex(), (k, clamp)


    @given(n=st.integers(1, 10**6), alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           data=st.data())
    def test_a_capped_call_skips_the_snap_and_keeps_the_snapped_step(self, n, alpha, data):
        # A clamped call is 1 as soon as n * rhat >= cap, before it snaps.  Half
        # the draws put n * rhat within the snap slack of cap - 1, cap or cap + 1,
        # or a few doubles off it, where round and ceil disagree.
        spec = TestSpec(n, alpha)
        bentkus_pvalue(1.0, spec)  # the first clamped call finds the law's cap
        law, _, _, cap = spec._steps
        if data.draw(st.booleans(), label="near a step"):
            j = min(n, max(0, cap + data.draw(st.integers(-1, 1))))
            slack = min(prw.SNAP_ATOL, prw.SNAP_RTOL * max(1, j))
            offset = data.draw(st.sampled_from((-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)))
            x = (j + offset * slack) / n
            steps = data.draw(st.integers(-3, 3), label="ulps")
            for _ in range(abs(steps)):
                x = math.nextafter(x, math.copysign(math.inf, steps))
            drawn = min(1.0, max(0.0, x))
        else:
            drawn = data.draw(st.floats(0.0, 1.0), label="rhat")
        for rhat in (0.0, math.nextafter(cap / n, 0.0), cap / n, 1.0, drawn):
            k = prw._snapped_ceil(n, rhat)[0]
            raw = math.e * cdf(law, k)
            want = 1.0 if k >= cap else raw
            assert bentkus_pvalue(rhat, spec).hex() == want.hex(), rhat
            assert bentkus_pvalue(rhat, spec, clamp=False).hex() == raw.hex(), rhat


def test_threads_on_one_cold_law_read_the_single_threaded_values():
    # The tables and the law's step record, its Bentkus cap among them, fill
    # lazily in shared state.  Four threads start on one cold law, each on
    # another kind of query; two share one spec and the other two have specs
    # of their own, so that several of them may build one half, look up one
    # record or fill one entry at once.  Every value, every half stored and
    # every step record must equal a single-threaded run.
    def queries(n):  # cdf up from below the mode, sf down from above it, PRW, Bentkus
        ks = range(-1, n + 2)
        return ([(cdf, k, None) for k in ks] + [(sf, k, None) for k in reversed(ks)]
                + [(f, j / n, clamp) for f in (prw_pvalue, bentkus_pvalue)
                   for j in range(n + 1) for clamp in (True, False)])

    def run(batch, law, spec):
        return [f(law, x) if clamp is None else f(x, spec, clamp=clamp) for f, x, clamp in batch]

    def record_bytes(spec):
        law, lo, steps, cap = spec._steps
        return law, lo, steps.tobytes(), cap

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n, alpha in ((2000, 0.137), (15, 0.1), (10, 0.05), (5000, 0.1)):
            batch = queries(n)
            clear_law_caches()
            spec = TestSpec(n, alpha)
            want = run(batch, BinomialParams(n, alpha), spec)
            halves = [(edge, tails.tobytes()) for edge, tails in binomial._tail_table(n, alpha)[1:3]]
            record = record_bytes(spec)
            clear_law_caches()
            law, shared = BinomialParams(n, alpha), TestSpec(n, alpha)
            specs = [shared, shared, TestSpec(n, alpha), TestSpec(n, alpha)]
            # thread i starts at the first query of kind i, and then goes round
            starts = [0, n + 3, 2 * (n + 3), 2 * (n + 3) + 2 * (n + 1)]
            barrier = threading.Barrier(4, timeout=60)
            results, errors = {}, []

            def worker(i):
                try:
                    order = list(range(starts[i], len(batch))) + list(range(starts[i]))
                    barrier.wait()
                    results[i] = dict(zip(order, run([batch[j] for j in order], law, specs[i])))
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads) and errors == []
            for i in range(4):
                got = [results[i][j] for j in range(len(batch))]
                assert [x.hex() for x in got] == [x.hex() for x in want], (n, alpha, i)
            stored = binomial._tail_table(n, alpha)[1:3]
            assert [(edge, tails.tobytes()) for edge, tails in stored] == halves, (n, alpha)
            assert all(record_bytes(s) == record for s in specs), (n, alpha)
    finally:
        sys.setswitchinterval(switch)
