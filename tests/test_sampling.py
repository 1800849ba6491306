"""Truncated-normal and stream machinery."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr, ndtri
from scipy.stats import kstest, norm

from mcmcdegen import sampling
from mcmcdegen.sampling import (
    MASS_FLOOR,
    TAIL_CUTOFF,
    DegenerateIntervalError,
    RngStream,
    SamplingError,
    check_count,
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
        monkeypatch.setattr(sampling, "ndtri",
                            lambda u, out=None: np.full_like(u, np.nan))
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


def _oracle_standard_truncated(a, b, gen):
    """The array path's standard draws as they were before the one-window
    path: inverse CDF in the bulk, exponential rejection past TAIL_CUTOFF,
    log-space inversion for slivers, clamps by ``np.clip``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    if a.size == 0:
        return np.empty(a.shape)
    if not (a < b).all():
        raise DegenerateIntervalError("empty truncation interval (lo >= hi)")
    flip = a > 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    tail = hi <= -TAIL_CUTOFF
    if not tail.any():
        out = _oracle_bulk_draws(lo, hi, gen)
    else:
        out = np.empty(a.shape)
        bulk = ~tail
        if bulk.any():
            out[bulk] = _oracle_bulk_draws(lo[bulk], hi[bulk], gen)
        tlo = -hi[tail]
        thi = -lo[tail]
        mass = ndtr(-tlo) - ndtr(-thi)
        if (mass < MASS_FLOOR).any():
            raise DegenerateIntervalError(
                "truncation interval mass underflows double precision")
        draws = np.empty(tlo.shape)
        pending = np.ones(tlo.shape, dtype=bool)
        alpha = 0.5 * (tlo + np.sqrt(tlo * tlo + 4.0))
        for _ in range(64):
            k = int(pending.sum())
            if k == 0:
                break
            lo_p = tlo[pending]
            al_p = alpha[pending]
            z = lo_p - np.log(gen.random(k)) / al_p
            accept = gen.random(k) <= np.exp(-0.5 * (z - al_p) ** 2)
            accept &= z <= thi[pending]
            idx = np.flatnonzero(pending)[accept]
            draws[idx] = z[accept]
            remaining = pending.copy()
            remaining[idx] = False
            pending = remaining
        if pending.any():
            lo_p = tlo[pending]
            hi_p = thi[pending]
            lq_lo = log_ndtr(-lo_p)
            lq_hi = log_ndtr(-hi_p)
            one_minus_ratio = -np.expm1(lq_hi - lq_lo)
            u = gen.random(int(pending.sum()))
            q = np.exp(lq_lo) * (1.0 - one_minus_ratio * u)
            z = -ndtri(np.fmax(q, 1e-310))
            draws[pending] = np.clip(z, lo_p, hi_p)
        out[tail] = -draws
    result = np.where(flip, -out, out)
    if not ((result >= a) & (result <= b)).all():
        raise SamplingError("truncated-normal draw outside its window")
    return result


def _oracle_bulk_draws(lo, hi, gen):
    fa = ndtr(lo)
    mass = ndtr(hi) - fa
    if (mass < MASS_FLOOR).any():
        raise DegenerateIntervalError(
            "truncation interval mass underflows double precision")
    u = fa + gen.random(lo.size).reshape(lo.shape) * mass
    return np.clip(ndtri(u), lo, hi)


def _oracle_truncated_normal_vec(mean, sd, lo, hi, rng):
    """``truncated_normal_vec`` before the one-window path: every call on
    numpy arrays. Kept as the bitwise reference."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if (sd <= 0).any():
        raise ValueError("sd must be positive")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    z = _oracle_standard_truncated(a, b, rng.generator)
    x = mean + sd * z
    return np.clip(x, lo, hi)


def _stream_state(rng):
    return json.dumps(rng.generator.bit_generator.state, sort_keys=True,
                      default=lambda v: np.asarray(v).tolist())


# How one argument of a one-window call is passed.
_FORMS = {
    "float": float,
    "float64": np.float64,
    "0-d": lambda v: np.array(v),
    "(1,)": lambda v: np.array([v]),
    "(1, 1)": lambda v: np.array([[v]]),
}


@st.composite
def _one_windows(draw):
    """(mean, sd, lo, hi) of one window, of every kind the sweeps and the
    rescue can pass: finite, half-infinite, reflected (a > 0), ends at
    +-0.0, past TAIL_CUTOFF, shut, without double mass, a few ulps wide
    (where un-standardising can round past an end), and arbitrary."""
    mean = draw(st.one_of(st.floats(-5, 5), st.sampled_from([0.0, -0.0])))
    sd = draw(st.floats(0.05, 4))
    kind = draw(st.sampled_from(
        ["finite", "lower-open", "upper-open", "reflected", "signed-zero",
         "tail", "shut", "underflow", "ulps", "any"]))
    a = draw(st.floats(-5.9, 5.9))
    width = draw(st.floats(1e-9, 8))
    if kind == "finite":
        a, b = a, a + width
    elif kind == "lower-open":
        a, b = -np.inf, a
    elif kind == "upper-open":
        a, b = a, np.inf
    elif kind == "reflected":
        a = abs(a) + 1e-3
        b = draw(st.sampled_from([a + width, np.inf]))
    elif kind == "tail":
        a = TAIL_CUTOFF + draw(st.floats(0, 30))
        b = draw(st.sampled_from([a + width, a + 1e-6, np.inf]))
        if draw(st.booleans()):
            a, b = -b, -a
    if kind in ("finite", "lower-open", "upper-open", "reflected", "tail"):
        return mean, sd, mean + sd * a, mean + sd * b
    if kind == "signed-zero":
        ends = draw(st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0),
                                     (-1.0, -0.0), (-0.0, 0.0), (0.0, np.inf),
                                     (-np.inf, -0.0), (-0.0, np.inf)]))
        return draw(st.sampled_from([0.0, -0.0, mean])), sd, *ends
    if kind == "shut":
        lo = mean + sd * a
        return mean, sd, lo, draw(st.sampled_from([lo, lo - width, -np.inf]))
    if kind == "ulps":
        lo = mean + sd * a
        return mean, sd, lo, lo + draw(st.integers(1, 8)) * np.spacing(lo)
    if kind == "underflow":
        lo = mean + sd * draw(st.sampled_from([a, 40.0, -40.0, 1e3]))
        return mean, sd, lo, np.nextafter(lo, np.inf)
    anything = st.floats(allow_nan=True, allow_infinity=True)
    return (draw(anything),
            draw(st.one_of(st.floats(0.05, 4),
                           st.sampled_from([0.0, -1.0, np.nan, np.inf]))),
            draw(anything), draw(anything))


class TestOneWindow:
    """A one-window call of ``truncated_normal_vec`` must return the
    oracle's bits, type and shape and leave the stream where it does; so
    must ``_window_float`` on the window's floats wherever it draws."""

    @settings(max_examples=400, deadline=None)
    @given(window=_one_windows(),
           forms=st.one_of(
               st.sampled_from([("float",) * 4, ("(1,)",) * 4,
                                ("(1, 1)",) * 4]),
               st.tuples(*[st.sampled_from(sorted(_FORMS))] * 4)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, window, forms, seed):
        args = [_FORMS[f](v) for f, v in zip(forms, window)]
        fresh = _stream_state(RngStream(seed, "one"))
        results = []
        for draw in (truncated_normal_vec, _oracle_truncated_normal_vec):
            rng = RngStream(seed, "one")
            with np.errstate(all="ignore"):
                try:
                    out = draw(*args, rng)
                except (ValueError, RuntimeError) as exc:
                    results.append((type(exc), _stream_state(rng)))
                    continue
            results.append((type(out), np.shape(out),
                            np.asarray(out).tobytes(), _stream_state(rng)))
        got, want = results
        assert got == want, (window, forms)
        if len(got) == 2:      # a raising call drew no uniform
            assert got[1] == fresh

        # The one-chain sweeps' float path, against the oracle on (1,)
        # windows: where it draws, the same bits and stream state; where it
        # refuses, an untouched stream.
        rng = RngStream(seed, "one")
        with np.errstate(all="ignore"):
            try:
                x = sampling._window_float(*map(float, window), rng.generator)
            except SamplingError:
                x = SamplingError
        if x is None:
            assert _stream_state(rng) == fresh, window
            return
        oracle = RngStream(seed, "one")
        with np.errstate(all="ignore"):
            try:
                want = _oracle_truncated_normal_vec(
                    *[np.array([v]) for v in window], oracle).tobytes()
            except (ValueError, RuntimeError) as exc:
                want = type(exc)
        assert (x if x is SamplingError else np.array([x]).tobytes(),
                _stream_state(rng)) == (want, _stream_state(oracle)), window


_CLAMP_VALUES = (-0.0, 0.0, -np.inf, np.inf, np.nan, 1.0, -1.0)
_TRIPLES = list(itertools.product(_CLAMP_VALUES, repeat=3))


def test_clamps_equal_np_clip_on_every_triple():
    """``_clip`` (the array path) and ``_clamp`` (the float path) equal
    np.clip byte for byte on every triple of signed zeros, infinities, NaN
    and +-1: ``_clip`` on 0-d operands and on arrays, whose loops order a
    tie of signed zeros differently, and ``_clamp`` as on (1,) arrays."""
    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    x, lo, hi = (np.array(col) for col in zip(*_TRIPLES))
    assert bits(sampling._clip(x, lo, hi)) == bits(np.clip(x, lo, hi))
    wrong = []
    for t in _TRIPLES:
        zero_d = [np.array(v) for v in t]
        one = [np.array([v]) for v in t]
        want0, want1 = np.clip(*zero_d), np.clip(*one)
        if not bits(want0) == bits(sampling._clip(*zero_d)):
            wrong.append(("0-d", t))
        if not (bits(sampling._clamp(*t)) == bits(want1)
                == bits(sampling._clip(*one))):
            wrong.append(("(1,)", t))
    assert not wrong, wrong


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


class TestCheckCount:
    def test_integers_pass(self):
        for value in (3, np.int64(3), np.uint8(3)):
            check_count("inner", value)
        check_count("m", 0, least=0)

    @pytest.mark.parametrize("value", [True, 2.0, 2.5, np.float64(2.0),
                                       np.bool_(True), "2"])
    def test_non_integers_refused(self, value):
        with pytest.raises(ValueError, match="need an integer inner"):
            check_count("inner", value)
