"""Tests for the Monte Carlo harness: determinism, validity, power ordering."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prwtest import mc
from prwtest.baselines import bentkus_pvalue, hoeffding_tight_pvalue
from prwtest.mc import (
    LossDistribution,
    McReport,
    simulate_power,
    simulate_superuniformity,
)
from prwtest.prw import TestSpec, prw_pvalue


# Dyadic support values (counted rows), off-lattice ones (averaged rows), -0.0,
# the least subnormal, 1 - 2**-50 (whose rows are counted up to n = 8) and any float.
SUPPORT_VALUES = (
    st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 0.3, 5e-324, 1 - 2**-50))
    | st.integers(1, 1074).map(lambda k: 2.0**-k)
    | st.floats(0, 1)
)


@st.composite
def discrete_laws(draw, max_points):
    """Discrete laws with repeated values, zero probabilities and point masses."""
    weight = st.sampled_from((0.0, 1.0)) | st.floats(0, 1, allow_subnormal=False)
    points = draw(st.lists(st.tuples(SUPPORT_VALUES, weight), min_size=1, max_size=max_points))
    support = [x for x, _ in points]
    weights = [w for _, w in points]
    total = math.fsum(weights)
    if total == 0.0:
        weights[0] = total = 1.0
    return LossDistribution.scaled_discrete(support, [w / total for w in weights])


class TestLossDistribution:
    def test_bernoulli_mean(self):
        d = LossDistribution.bernoulli(0.2)
        assert d.mean == 0.2
        assert d.kind == "bernoulli"

    def test_bernoulli_degenerate_endpoints_allowed(self):
        assert LossDistribution.bernoulli(0.0).mean == 0.0
        assert LossDistribution.bernoulli(1.0).mean == 1.0

    @pytest.mark.parametrize("p", [-0.1, 1.2, float("nan")])
    def test_bernoulli_domain(self, p):
        with pytest.raises(ValueError):
            LossDistribution.bernoulli(p)

    def test_beta_mean(self):
        d = LossDistribution.beta(2, 38)
        assert d.mean == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("a,b", [
        (0, 1), (1, 0), (-2, 3),
        # a non-finite shape or an overflowing a + b breaks the mean a / (a + b)
        (math.inf, 1), (1, math.inf), (math.nan, 1), (1e308, 1e308),
    ])
    def test_beta_domain(self, a, b):
        with pytest.raises(ValueError):
            LossDistribution.beta(a, b)

    def test_discrete_mean(self):
        d = LossDistribution.scaled_discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5))
        assert d.mean == pytest.approx(0.65, abs=1e-15)

    def test_discrete_support_outside_unit(self):
        for support in ((0.0, 1.5), (0.0, math.nan)):
            with pytest.raises(ValueError) as exc:
                LossDistribution.scaled_discrete(support, (0.5, 0.5))
            assert str(exc.value) == f"support must lie within [0, 1], got {support}"

    def test_discrete_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LossDistribution.scaled_discrete((0.0, 1.0), (0.5, 0.4))

    @pytest.mark.parametrize("probs", [(1e308, 1e308), (math.inf, 0.0)])
    def test_discrete_probs_summing_past_the_largest_double(self, probs):
        # as for FwerPlan weights: an overflowing sum reads as inf
        with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got inf$"):
            LossDistribution.scaled_discrete((0.0, 1.0), probs)

    def test_samples_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for d in (
            LossDistribution.bernoulli(0.3),
            LossDistribution.beta(2, 5),
            LossDistribution.scaled_discrete((0.0, 0.25, 1.0), (0.3, 0.3, 0.4)),
        ):
            x = d.sample(rng, 1000)
            assert x.shape == (1000,)
            assert np.all((x >= 0) & (x <= 1))

    @given(
        dist=discrete_laws(max_points=40),
        size=st.just(()) | st.integers(0, 50) | st.tuples(st.integers(0, 6), st.integers(0, 9)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_discrete_draws_are_generator_choice(self, dist, size, seed):
        """Same bits, dtype, shape and stream use as Generator.choice on the
        installed numpy, over supports with repeated values and zero probabilities."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dist.sample(got_rng, size)
        want = want_rng.choice(dist.params[0], p=dist.params[1], size=size)
        assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(
        dist=st.floats(0, 1).map(LossDistribution.bernoulli) | discrete_laws(max_points=6),
        rows=st.integers(1, 5),
        n=st.integers(1, 20) | st.integers(120, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(dist=LossDistribution.scaled_discrete((-0.0,), (1.0,)), rows=2, n=3, seed=0)
    # the counts widen from uint16 to uint32 between these n, and some count every loss
    @example(dist=LossDistribution.bernoulli(1.0), rows=2, n=65535, seed=1)
    @example(dist=LossDistribution.bernoulli(1.0), rows=2, n=65536, seed=1)
    @example(dist=LossDistribution.scaled_discrete((0.0, 0.5, 1.0), (0.0, 0.5, 0.5)),
             rows=2, n=65535, seed=2)
    @example(dist=LossDistribution.scaled_discrete((0.0, 0.5, 1.0), (0.0, 0.5, 0.5)),
             rows=2, n=65536, seed=2)
    def test_row_means_are_the_loss_matrix_row_means(self, dist, rows, n, seed):
        """Counted or averaged, the rows equal sample's row means bit for bit
        and leave the stream where sample leaves it."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dist._row_means(got_rng, rows, n)
        want = dist.sample(want_rng, (rows, n)).mean(axis=1)
        assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n, counted", [(8, True), (9, False)])
    def test_lattice_boundary(self, monkeypatch, n, counted):
        """8 * (2**50 - 1) < 2**53 <= 9 * (2**50 - 1): rows of 8 are counted,
        rows of 9 averaged from the loss matrix, and both equal its row means."""
        dist = LossDistribution.scaled_discrete((0.0, 1 - 2**-50, 0.5), (0.2, 0.5, 0.3))
        want = dist.sample(np.random.default_rng(8), (40, n)).mean(axis=1)
        sample, drawn = LossDistribution.sample, []
        monkeypatch.setattr(
            LossDistribution, "sample",
            lambda self, rng, size: drawn.append(size) or sample(self, rng, size),
        )
        got = dist._row_means(np.random.default_rng(8), 40, n)
        assert drawn == ([] if counted else [(40, n)])
        assert got.tobytes() == want.tobytes()

    def test_sample_mean_near_analytic(self):
        rng = np.random.default_rng(123)
        d = LossDistribution.beta(4, 16)
        x = d.sample(rng, 200_000)
        assert abs(x.mean() - d.mean) < 0.003


class TestSuperuniformity:
    DIST = LossDistribution.bernoulli(0.2)
    SPEC = TestSpec(n=50, alpha=0.1)

    def test_deterministic_given_seed(self):
        a = simulate_superuniformity(self.DIST, self.SPEC, "prw", (0.05, 0.1), 500, seed=42)
        b = simulate_superuniformity(self.DIST, self.SPEC, "prw", (0.05, 0.1), 500, seed=42)
        assert a == b

    def test_seed_changes_stream(self):
        a = simulate_superuniformity(self.DIST, self.SPEC, "prw", (0.2,), 2000, seed=1)
        b = simulate_superuniformity(self.DIST, self.SPEC, "prw", (0.2,), 2000, seed=2)
        assert a.exceedance != b.exceedance

    def test_exceedance_bounded_by_level(self):
        rep = simulate_superuniformity(
            self.DIST, self.SPEC, "prw", (0.01, 0.05, 0.1, 0.2), 20_000, seed=42
        )
        for d, e, se in zip(rep.delta_grid, rep.exceedance, rep.stderr):
            assert e <= d + 3 * se

    def test_losses_near_one_never_reject(self):
        rep = simulate_superuniformity(
            LossDistribution.bernoulli(0.999), TestSpec(n=10, alpha=0.1),
            "prw", (0.05, 0.2), 1000, seed=3,
        )
        assert rep.exceedance == (0.0, 0.0)

    def test_single_rep_degenerate(self):
        rep = simulate_superuniformity(
            LossDistribution.bernoulli(0.3), TestSpec(n=25, alpha=0.1),
            "prw", (0.05, 0.9), 1, seed=5,
        )
        assert all(e in (0.0, 1.0) for e in rep.exceedance)
        assert rep.stderr == (0.0, 0.0)

    def test_rejects_power_configuration(self):
        with pytest.raises(ValueError):
            simulate_superuniformity(
                LossDistribution.bernoulli(0.05), self.SPEC, "prw", (0.05,), 10, seed=0
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_superuniformity(self.DIST, self.SPEC, "prw", (0.05,), 0, seed=0)
        with pytest.raises(ValueError):
            simulate_superuniformity(self.DIST, self.SPEC, "prw", (), 10, seed=0)
        with pytest.raises(ValueError):
            simulate_superuniformity(self.DIST, self.SPEC, "prw", (1.5,), 10, seed=0)
        with pytest.raises(ValueError):
            simulate_superuniformity(self.DIST, self.SPEC, "waldo", (0.05,), 10, seed=0)

    def test_report_shape(self):
        rep = simulate_superuniformity(self.DIST, self.SPEC, "bentkus", (0.1, 0.2), 50, seed=9)
        assert isinstance(rep, McReport)
        assert len(rep.delta_grid) == len(rep.exceedance) == len(rep.stderr) == 2
        assert rep.reps == 50 and rep.seed == 9

    def test_mc_benchmark_discrete_configuration(self):
        # the benchmark's pinned discrete validate run; its reference values
        # come from the sampler itself, so only a pin catches a changed draw
        rep = simulate_superuniformity(
            LossDistribution.scaled_discrete((0, 0.5, 1), (0.84, 0.11, 0.05)),
            TestSpec(1000, 0.1), "bentkus", (0.01, 0.05, 0.1, 0.2), 10_000, seed=2644238536,
        )
        assert rep.exceedance == (0.0, 0.0007, 0.0026, 0.0064)


class TestPower:
    def test_prw_dominates_bentkus_at_small_risks(self):
        rates = simulate_power(
            LossDistribution.bernoulli(0.01), TestSpec(n=100, alpha=0.1),
            ["prw", "bentkus"], delta=0.05, reps=10_000, seed=7,
        )
        assert rates["prw"] >= rates["bentkus"]
        assert rates["prw"] > 0.9

    def test_degenerate_zero_losses(self):
        spec = TestSpec(n=100, alpha=0.1)
        rates = simulate_power(
            LossDistribution.bernoulli(0.0), spec,
            ["prw", "bentkus", "hoeffding-tight"], delta=0.05, reps=100, seed=1,
        )
        # every replication observes rhat = 0, so each method is all-or-nothing
        for method, fn in (
            ("prw", prw_pvalue),
            ("bentkus", bentkus_pvalue),
            ("hoeffding-tight", hoeffding_tight_pvalue),
        ):
            expected = 1.0 if fn(0.0, spec) <= 0.05 else 0.0
            assert rates[method] == expected

    def test_beta_regression_fixture(self):
        # pinned from the first seeded run; numpy Generator.beta stream stability
        # is part of the sampling contract
        rates = simulate_power(
            LossDistribution.beta(2, 38), TestSpec(n=100, alpha=0.1),
            ["prw", "bentkus", "hoeffding-tight"], delta=0.05, reps=10_000, seed=20240817,
        )
        assert rates == {"prw": 0.0007, "bentkus": 0.0, "hoeffding-tight": 0.0}

    def test_paired_losses_shared_across_methods(self):
        # reconstruct the per-replication p-values from the documented stream
        dist = LossDistribution.bernoulli(0.05)
        spec = TestSpec(n=50, alpha=0.2)
        reps, seed, delta = 400, 11, 0.1
        rates = simulate_power(dist, spec, ["prw", "bentkus"], delta, reps, seed)
        rng = np.random.default_rng(seed)
        losses = dist.sample(rng, (reps, spec.n))
        rhats = losses.mean(axis=1)
        prw = np.array([prw_pvalue(r, spec) for r in rhats])
        bent = np.array([bentkus_pvalue(r, spec) for r in rhats])
        assert rates["prw"] == pytest.approx(float(np.mean(prw <= delta)))
        assert rates["bentkus"] == pytest.approx(float(np.mean(bent <= delta)))

    def test_pointwise_ordering_within_run(self):
        # factor < e on every step reachable here, so PRW <= Bentkus per rep
        dist = LossDistribution.bernoulli(0.02)
        spec = TestSpec(n=100, alpha=0.1)
        rng = np.random.default_rng(21)
        rhats = dist.sample(rng, (2000, spec.n)).mean(axis=1)
        for r in rhats:
            k = round(r * 100)
            factor = 0.1 * (100 - k) / (10 - k) if k < 10 else math.inf
            if k <= 9 and factor < math.e:
                assert prw_pvalue(r, spec) <= bentkus_pvalue(r, spec) + 1e-15

    def test_method_ids_are_canonicalised(self):
        rates = simulate_power(
            LossDistribution.bernoulli(0.02), TestSpec(n=50, alpha=0.1),
            ["PRW", "hoeffding_tight"], delta=0.05, reps=50, seed=3,
        )
        assert list(rates) == ["prw", "hoeffding-tight"]

    def test_rejects_null_configuration(self):
        with pytest.raises(ValueError):
            simulate_power(
                LossDistribution.bernoulli(0.5), TestSpec(n=10, alpha=0.1),
                ["prw"], delta=0.05, reps=10, seed=0,
            )

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError):
            simulate_power(
                LossDistribution.bernoulli(0.01), TestSpec(n=10, alpha=0.1),
                [], delta=0.05, reps=10, seed=0,
            )

    def test_rejects_a_bare_method_name(self):
        # a string is a sequence of one-letter names; the error names the string instead
        with pytest.raises(ValueError, match="not the string 'prw'"):
            simulate_power(
                LossDistribution.bernoulli(0.01), TestSpec(n=10, alpha=0.1),
                "prw", delta=0.05, reps=10, seed=0,
            )


@pytest.mark.parametrize("reps", [0, 2.5, "3"])
def test_simulations_reject_non_positive_integer_reps(reps):
    spec = TestSpec(n=10, alpha=0.1)
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        simulate_superuniformity(LossDistribution.bernoulli(0.5), spec, "prw", (0.05,), reps, 0)
    with pytest.raises(ValueError, match="reps must be a positive integer"):
        simulate_power(LossDistribution.bernoulli(0.01), spec, ["prw"], 0.05, reps, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
def test_simulations_reject_a_seed_that_is_not_a_non_negative_integer(seed):
    spec = TestSpec(n=10, alpha=0.1)
    message = "seed must be a non-negative integer, got "
    with pytest.raises(ValueError, match=message):
        simulate_superuniformity(LossDistribution.bernoulli(0.5), spec, "prw", (0.05,), 1, seed)
    with pytest.raises(ValueError, match=message):
        simulate_power(LossDistribution.bernoulli(0.01), spec, ["prw"], 0.05, 1, seed)


def test_numpy_integer_seed_draws_the_same_stream():
    spec = TestSpec(n=10, alpha=0.1)
    dist = LossDistribution.bernoulli(0.3)
    args = (dist, spec, "prw", (0.05, 0.5), 200)
    assert simulate_superuniformity(*args, np.int64(4)) == simulate_superuniformity(*args, 4)


STREAM_LAWS = {
    "bernoulli": LossDistribution.bernoulli(0.3),
    "beta-shapes-ge-1": LossDistribution.beta(1.1, 9),
    "beta-shape-lt-1": LossDistribution.beta(0.5, 0.3),  # another numpy sampler branch
    "discrete": LossDistribution.scaled_discrete((0.0, 0.5, 1.0), (0.84, 0.11, 0.05)),
    "discrete-off-lattice": LossDistribution.scaled_discrete((0.1, 0.3, 0.9), (0.5, 0.3, 0.2)),
    "point-mass": LossDistribution.scaled_discrete((0.75,), (1.0,)),
}


@pytest.mark.parametrize("law", STREAM_LAWS)
@pytest.mark.parametrize("chunk_values, n, reps, rows", [
    (10, 3, 50, 3),     # rows summed by a plain loop
    (91, 13, 50, 7),    # rows summed by numpy's unrolled pairwise loop
    (100, 150, 9, 1),   # n > _CHUNK_VALUES, and rows split by pairwise recursion
])
def test_row_chunks_match_a_single_block_draw(monkeypatch, law, chunk_values, n, reps, rows):
    """Chunked draws reproduce the single (reps, n) block bit for bit."""
    dist, seed = STREAM_LAWS[law], 20241018
    monkeypatch.setattr(mc, "_CHUNK_VALUES", chunk_values)
    block_rhats = dist.sample(np.random.default_rng(seed), (reps, n)).mean(axis=1)

    def reference(spec, method, delta):
        pvals = np.array([mc.PVALUE_METHODS[method](r, spec) for r in block_rhats])
        return float(np.mean(pvals <= delta))

    spec = TestSpec(n=n, alpha=dist.mean / 2)
    with monkeypatch.context() as m:
        m.setitem(mc.PVALUE_METHODS, "prw", lambda rhat, spec: rhat)
        chunks = [c["prw"] for c in mc._sample_pvalues(dist, spec, ["prw"], reps, seed)]
    assert [len(c) for c in chunks] == [min(rows, reps - i) for i in range(0, reps, rows)]
    assert np.concatenate(chunks).tobytes() == block_rhats.tobytes()

    grid = (0.05, 0.3, 0.9)
    for method in mc.PVALUE_METHODS:
        rep = simulate_superuniformity(dist, spec, method, grid, reps, seed)
        assert rep.exceedance == tuple(reference(spec, method, d) for d in grid)

    alt = TestSpec(n=n, alpha=(1.0 + dist.mean) / 2)
    rates = simulate_power(dist, alt, list(mc.PVALUE_METHODS), 0.3, reps, seed)
    assert rates == {method: reference(alt, method, 0.3) for method in mc.PVALUE_METHODS}
