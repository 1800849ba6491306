"""Truncated-normal and stream machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest, norm

from mcmcdegen import sampling
from mcmcdegen.sampling import (
    DegenerateIntervalError,
    RngStream,
    SamplingError,
    gamma_draw,
    truncated_normal_extended,
    truncated_normal_vec,
)


def trunc_cdf(mean, sd, lo, hi):
    a, b = (lo - mean) / sd, (hi - mean) / sd
    if a > 0:
        # right tail: survival function keeps relative precision
        sa, sb = norm.sf(a), norm.sf(b)

        def cdf(x):
            return np.clip((sa - norm.sf((x - mean) / sd)) / (sa - sb), 0, 1)
    else:
        ca, cb = norm.cdf(a), norm.cdf(b)

        def cdf(x):
            return np.clip((norm.cdf((x - mean) / sd) - ca) / (cb - ca), 0, 1)

    return cdf


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(7, "x", 3).generator.random(5)
        b = RngStream(7, "x", 3).generator.random(5)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = RngStream(7, "x").generator.random(5)
        b = RngStream(7, "y").generator.random(5)
        c = RngStream(8, "x").generator.random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_is_stable_and_distinct(self):
        root = RngStream(11)
        assert np.array_equal(root.child("a", 1).generator.random(4),
                              RngStream(11, "a", 1).generator.random(4))
        assert not np.array_equal(root.child("a").generator.random(4),
                                  root.child("b").generator.random(4))

    def test_seed_int_range_and_stability(self):
        s = RngStream(3, "bank").seed_int()
        assert s == RngStream(3, "bank").seed_int()
        assert 0 <= s < 2**63
        assert s != RngStream(3, "data").seed_int()


class TestTruncatedNormal:
    def test_ks_against_analytic_cdf(self):
        rng = RngStream(42, "ks")
        gen = np.random.default_rng(5)
        for _ in range(20):
            mean = float(gen.normal(scale=2))
            sd = float(gen.uniform(0.1, 3.0))
            lo = mean + sd * float(gen.uniform(-4, 1))
            hi = lo + sd * float(gen.uniform(0.05, 4))
            draws = truncated_normal_vec(
                np.full(10_000, mean), sd, np.full(10_000, lo),
                np.full(10_000, hi), rng.child("case", _))
            assert np.all(draws >= lo) and np.all(draws <= hi)
            p = kstest(draws, trunc_cdf(mean, sd, lo, hi)).pvalue
            assert p > 1e-3, (mean, sd, lo, hi, p)

    def test_deep_tail_interval(self):
        rng = RngStream(1, "tail")
        draws = truncated_normal_vec(
            np.zeros(10_000), 1.0, np.full(10_000, 8.0), np.full(10_000, 9.0),
            rng)
        assert np.all((draws >= 8.0) & (draws <= 9.0))
        p = kstest(draws, trunc_cdf(0.0, 1.0, 8.0, 9.0)).pvalue
        assert p > 1e-3

    def test_reflected_tail_matches(self):
        lo, hi = -9.0, -8.0
        draws = truncated_normal_vec(
            np.zeros(10_000), 1.0, np.full(10_000, lo), np.full(10_000, hi),
            RngStream(2, "tail"))
        assert np.all((draws >= lo) & (draws <= hi))
        assert kstest(draws, trunc_cdf(0.0, 1.0, lo, hi)).pvalue > 1e-3

    def test_narrow_tail_sliver(self):
        # so narrow that rejection almost never lands: exercises the
        # log-space inverse-CDF completion
        lo, hi = 8.0, 8.00001
        draws = truncated_normal_vec(
            np.zeros(10_000), 1.0, np.full(10_000, lo), np.full(10_000, hi),
            RngStream(21, "sliver"))
        assert np.all((draws >= lo) & (draws <= hi))
        assert kstest(draws, trunc_cdf(0.0, 1.0, lo, hi)).pvalue > 1e-3

    def test_one_sided_far_tail(self):
        draws = truncated_normal_vec(
            np.zeros(5000), 1.0, np.full(5000, 10.0), np.full(5000, np.inf),
            RngStream(3, "one-sided"))
        assert np.all(draws >= 10.0)
        assert np.isfinite(draws).all()

    def test_scalar_interval_and_empty(self):
        val = truncated_normal_vec(0.0, 1.0, 0.5, 1.5, RngStream(4))
        assert val.shape == () and 0.5 <= val <= 1.5
        with pytest.raises(DegenerateIntervalError):
            truncated_normal_vec(0.0, 1.0, 2.0, 2.0, RngStream(5))

    def test_extended_precision_rescue(self):
        val = truncated_normal_extended(0.0, 1.0, 38.0, 39.0, RngStream(6))
        assert 38.0 <= val <= 39.0

    def test_bit_reproducible(self):
        args = (np.full(64, 0.3), 1.2, np.full(64, -1.0), np.full(64, 2.0))
        a = truncated_normal_vec(*args, RngStream(9, "bits"))
        b = truncated_normal_vec(*args, RngStream(9, "bits"))
        assert np.array_equal(a, b)

    def test_all_bulk_call_matches_mixed_call(self):
        """A call whose windows all lie in the bulk runs on the whole arrays;
        appending one tail window sends the same windows through the
        gather/scatter path, which draws the bulk uniforms first. The bulk
        draws must agree bit for bit, on one and on two axes."""
        lo = np.array([-1.0, 0.5, -np.inf, 2.0, -3.0, -0.2])
        hi = np.array([1.0, 2.5, -1.5, np.inf, -2.9, 0.2])
        lo2, hi2 = np.stack([lo, lo[::-1]]), np.stack([hi, hi[::-1]])
        for lo_k, hi_k in ((lo, hi), (lo2, hi2)):
            shape = lo_k.shape[:-1] + (1,)
            lo_t = np.concatenate([lo_k, np.full(shape, 7.0)], axis=-1)
            hi_t = np.concatenate([hi_k, np.full(shape, 8.0)], axis=-1)
            bulk = truncated_normal_vec(0.0, 1.0, lo_k, hi_k,
                                        RngStream(12, "paths"))
            mixed = truncated_normal_vec(0.0, 1.0, lo_t, hi_t,
                                         RngStream(12, "paths"))
            assert np.array_equal(bulk, mixed[..., :-1])
            assert 7.0 <= mixed[..., -1].min() <= mixed[..., -1].max() <= 8.0

    def test_mixed_bulk_and_tail_windows(self):
        # bulk, both reflected tails, a one-sided tail and a tail sliver
        lo = np.array([-1.0, 7.0, -9.0, 12.0, 6.5, 0.3, 8.0])
        hi = np.array([0.5, 7.5, -8.0, np.inf, 30.0, 4.0, 8.00001])
        a = truncated_normal_vec(0.0, 1.0, lo, hi, RngStream(13, "mixed"))
        b = truncated_normal_vec(0.0, 1.0, lo, hi, RngStream(13, "mixed"))
        assert np.all((a >= lo) & (a <= hi))
        assert a.tobytes() == b.tobytes()

    def test_window_guard_raises_without_assert(self, monkeypatch):
        # A draw outside its window (here NaN from a broken inverse CDF)
        # raises SamplingError, which ``python -O`` does not strip.
        monkeypatch.setattr(sampling, "ndtri", lambda u: np.full_like(u, np.nan))
        with pytest.raises(SamplingError):
            truncated_normal_vec(0.0, 1.0, np.zeros(3), np.ones(3),
                                 RngStream(14))

    @settings(max_examples=60, deadline=None)
    @given(mean=st.floats(-5, 5), sd=st.floats(0.05, 4),
           lo=st.floats(-20, 19.5), width=st.floats(1e-6, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_always_inside_bounds(self, mean, sd, lo, width, seed):
        hi = lo + width
        try:
            draws = truncated_normal_vec(
                np.full(16, mean), sd, np.full(16, lo), np.full(16, hi),
                RngStream(seed, "prop"))
        except DegenerateIntervalError:
            # only allowed when the interval truly has no double-precision
            # mass; the extended-precision fallback must still manage
            near = min(abs(lo - mean), abs(hi - mean)) / sd
            assert near > 36.0
            val = truncated_normal_extended(mean, sd, lo, hi,
                                            RngStream(seed, "rescue"))
            assert lo <= val <= hi
        else:
            assert np.all((draws >= lo) & (draws <= hi))


class TestGammaDraw:
    def test_half_normal_prior_moment(self):
        # g = sqrt of Gamma(1/2, 1/2) is half-normal with E g = sqrt(2/pi)
        g = np.sqrt(gamma_draw(0.5, 0.5, RngStream(10), size=200_000))
        target = np.sqrt(2 / np.pi)
        se = g.std() / np.sqrt(g.size)
        assert abs(g.mean() - target) < 5 * se

    def test_rate_parameterization(self):
        draws = gamma_draw(3.0, 2.0, RngStream(11), size=200_000)
        assert abs(draws.mean() - 1.5) < 0.02
