"""Low-level exact samplers shared by every kernel.

Everything here is either a thin, reproducible wrapper around numpy's
counter-based Philox generator or an exact sampler built on top of it:
truncated normals (inverse CDF in the bulk, exponential rejection past 6 sd,
and an extended-precision rescue) and gamma draws.

Every array of truncated-normal windows, a batch's or one chain's, is drawn
by ``truncated_normal_vec``, in place where the windows lie in the bulk.
One chain's cut-point and slope windows take ``_window_float``, the same
arithmetic on Python floats, which refuses before drawing anything where
the array call would raise or leave the bulk. The rescue's elementwise
draws run ``truncated_normal_vec`` on 0-d arrays.

All functions take an explicit :class:`RngStream`; nothing touches global
random state, so identical stream keys reproduce identical draws bit for bit
regardless of scheduling.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

TAIL_CUTOFF = 6.0
MASS_FLOOR = 1e-300
_MAX_REJECTION_ROUNDS = 64

# The reductions behind ndarray.any/all/max/min/sum, called without the
# Python wrappers those methods go through; a one-chain sweep makes a dozen.
_any = np.logical_or.reduce
_all = np.logical_and.reduce
_max = np.maximum.reduce
_min = np.minimum.reduce
_sum = np.add.reduce


class DegenerateIntervalError(ValueError):
    """Raised when a truncation interval carries no representable mass."""


class SamplingError(RuntimeError):
    """Raised when a sampler returns a draw outside its window."""


def _path_entry(part) -> int:
    """Map a stream path component to a stable nonnegative integer."""
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("stream path integers must be nonnegative")
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"stream path entries must be int or str, got {type(part)!r}")


class RngStream:
    """Counter-based random stream keyed by (master seed, *path).

    Two streams with different paths are statistically independent, and a
    stream is fully determined by its key: the same (seed, path) always
    reproduces the same draws. Child streams extend the path, which is how
    replications, chains, and steps get their own independent randomness
    without any sequential coupling.

    A stream owns a single lazily created generator and must not be shared
    across threads; derive children instead.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, *path):
        self.seed = int(seed)
        self.path = tuple(_path_entry(p) for p in path)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def child(self, *path) -> "RngStream":
        stream = RngStream.__new__(RngStream)
        stream.seed = self.seed
        stream.path = self.path + tuple(_path_entry(p) for p in path)
        stream._gen = None
        return stream

    def seed_int(self) -> int:
        """A stable 63-bit integer derived from this stream's key.

        Handy where an API wants a plain seed (e.g. dataset sidecars) but
        the value must still be keyed to the stream hierarchy.
        """
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return int(seq.generate_state(1, np.uint64)[0] >> np.uint64(1))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={self.path})"


def _clip(x, lo, hi):
    """``np.clip(x, lo, hi)`` without its Python wrapper, in place.

    ``x`` is a fresh array of the broadcast shape, so it takes the result
    and a batch of latents allocates no temporaries. On arrays, np.clip
    equals ``np.minimum(np.maximum(x, lo), hi)``. On 0-d operands np.clip
    keeps ``x`` where it ties a bound of the other signed zero, and the
    array loop takes the bound; those calls stay with np.clip.
    """
    if x.ndim == 0:
        return np.clip(x, lo, hi, out=x)
    return np.minimum(np.maximum(x, lo, out=x), hi, out=x)


def _clamp(x: float, lo: float, hi: float) -> float:
    """``_clip`` on floats, as on (1,) arrays: NaN in ``x`` or in a bound
    propagates, and a tie of signed zeros takes the bound."""
    if not (x > lo or x != x):
        x = lo
    if not (x < hi or x != x):
        x = hi
    return x


def _window_float(mean: float, sd: float, lo: float, hi: float,
                  gen) -> float | None:
    """``truncated_normal_vec`` on one (1,) window in the bulk, in Python
    floats: the same bits and the same uniform, without numpy's per-call
    cost. Returns None, with no uniform drawn, where the array call would
    raise or take the tail path."""
    if not sd > 0:
        return None
    a = (lo - mean) / sd
    b = (hi - mean) / sd
    if not a < b:
        return None
    flip = a > 0.0
    wlo, whi = (-b, -a) if flip else (a, b)
    if whi <= -TAIL_CUTOFF:
        return None
    fa = float(ndtr(wlo))
    mass = float(ndtr(whi)) - fa
    if mass < MASS_FLOOR:
        return None
    z = _clamp(float(ndtri(fa + gen.random() * mass)), wlo, whi)
    if flip:
        z = -z
    if not (z >= a and z <= b):
        raise SamplingError("truncated-normal draw outside its window")
    return _clamp(mean + sd * z, lo, hi)


def _inverse_cdf(lo, hi, gen):
    """Inverse-CDF draws on reflected windows lo < hi with hi > -TAIL_CUTOFF,
    in place. The mass check comes before the uniforms are drawn, so a call
    that raises leaves the stream untouched."""
    fa = ndtr(lo)
    mass = ndtr(hi)
    mass -= fa
    if _min(mass, axis=None) < MASS_FLOOR:
        raise DegenerateIntervalError("truncation interval mass underflows "
                                      "double precision")
    z = gen.random(lo.size).reshape(lo.shape)
    z *= mass
    z += fa
    return _clip(ndtri(z, out=z), lo, hi)


def _right_tail(tlo, thi, gen):
    """Draws on right-tail windows [tlo, thi], tlo >= TAIL_CUTOFF: Robert's
    translated-exponential rejection, which stays exact arbitrarily far out
    where the CDF has no resolution left, then log-space inversion for the
    slivers too narrow for rejection to land in."""
    mass = ndtr(-tlo) - ndtr(-thi)
    if (mass < MASS_FLOOR).any():
        raise DegenerateIntervalError("truncation interval mass underflows "
                                      "double precision")
    draws = np.empty(tlo.shape)
    pending = np.ones(tlo.shape, dtype=bool)
    alpha = 0.5 * (tlo + np.sqrt(tlo * tlo + 4.0))
    for _ in range(_MAX_REJECTION_ROUNDS):
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
        # The conditional survival function inverted in log space keeps
        # full relative precision arbitrarily far out.
        lo_p = tlo[pending]
        hi_p = thi[pending]
        lq_lo = log_ndtr(-lo_p)
        lq_hi = log_ndtr(-hi_p)
        one_minus_ratio = -np.expm1(lq_hi - lq_lo)
        u = gen.random(int(pending.sum()))
        q = np.exp(lq_lo) * (1.0 - one_minus_ratio * u)
        z = -ndtri(np.fmax(q, 1e-310))
        draws[pending] = _clip(z, lo_p, hi_p)
    return draws


def truncated_normal_vec(mean, sd, lo, hi, rng: RngStream):
    """Vectorized exact draws from N(mean, sd^2) restricted to [lo, hi].

    All arguments broadcast; the output has the broadcast shape, and one
    call draws its uniforms in C order. ``mean`` None is the mean 0.0, and
    a float ``sd`` of 1.0 skips the scaling; neither changes a bit.

    The windows are standardized and reflected onto the left half-line,
    where the CDF keeps absolute accuracy. A call whose windows all lie in
    the bulk runs the inverse CDF in place on the whole arrays; a call with
    windows past TAIL_CUTOFF draws its bulk windows first, with the same
    arithmetic, then the tails. An sd that is not positive raises
    ValueError; a NaN, a shut window or one without double mass raises
    DegenerateIntervalError before any uniform is drawn, except that a
    tail's underflow is found after the bulk's uniforms.
    """
    if type(sd) is not float:
        sd = np.asarray(sd, dtype=float)
    if sd <= 0 if type(sd) is float else _any(sd <= 0, axis=None):
        raise ValueError("sd must be positive")
    scaled = type(sd) is not float or sd != 1.0
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if mean is None:
        a, b = lo, hi
    else:
        mean = np.asarray(mean, dtype=float)
        a, b = lo - mean, hi - mean
    if scaled:
        a = a / sd
        b = b / sd
    if not _all(a < b, axis=None):
        raise DegenerateIntervalError("empty truncation interval (lo >= hi)")
    flip = a > 0.0
    wlo = np.where(flip, -b, a)
    whi = np.where(flip, -a, b)
    if not wlo.size:
        return wlo
    # Neither bound holds a NaN once every a < b, so the minimum decides.
    if _min(whi, axis=None) > -TAIL_CUTOFF:
        z = _inverse_cdf(wlo, whi, rng.generator)
    else:
        z = np.empty(wlo.shape)
        tail = whi <= -TAIL_CUTOFF
        bulk = ~tail
        if bulk.any():
            z[bulk] = _inverse_cdf(wlo[bulk], whi[bulk], rng.generator)
        z[tail] = -_right_tail(-whi[tail], -wlo[tail], rng.generator)
    # The clamps keep every draw in its reflected window unless it is NaN,
    # so the window check reduces to a NaN test.
    check = _min(z, axis=None)
    if check != check:
        raise SamplingError("truncated-normal draw outside its window")
    np.negative(z, out=z, where=flip)
    if scaled:
        z *= sd
    z += 0.0 if mean is None else mean
    # Standardizing can round endpoints; clamp back onto the requested
    # interval so membership is exact for downstream hard assertions.
    z = _clip(z, lo, hi)
    return z if z.ndim else z[()]


def truncated_normal_extended(mean, sd, lo, hi, rng: RngStream):
    """Slow high-precision fallback for intervals whose mass underflows.

    Reflects the interval onto the right half-line, evaluates the survival
    function at 60 significant digits with mpmath (where it keeps relative
    precision arbitrarily far out), and inverts the conditional draw by
    bisection. Raises DegenerateIntervalError if the interval carries no
    mass even at that precision. Scalar only; this path is for rescue, not
    throughput.
    """
    import mpmath as mp

    with mp.workdps(60):
        m, s = mp.mpf(mean), mp.mpf(sd)
        a = (mp.mpf(lo) - m) / s if math.isfinite(lo) else mp.mpf("-inf")
        b = (mp.mpf(hi) - m) / s if math.isfinite(hi) else mp.mpf("inf")
        flip = b <= 0
        if flip:
            a, b = -b, -a

        def surv(t):
            return mp.ncdf(-t)

        qa = surv(a) if mp.isfinite(a) else mp.mpf(1)
        qb = surv(b) if mp.isfinite(b) else mp.mpf(0)
        mass = qa - qb
        if mass <= 0:
            raise DegenerateIntervalError(
                "interval mass is zero even at extended precision"
            )
        target = qa - mp.mpf(rng.generator.random()) * mass
        t0 = a if mp.isfinite(a) else mp.mpf(-45)
        t1 = b if mp.isfinite(b) else max(t0 + 10, mp.mpf(45))
        for _ in range(260):
            if t1 - t0 <= mp.mpf("1e-45") * (1 + abs(t0)):
                break
            mid = (t0 + t1) / 2
            if surv(mid) >= target:
                t0 = mid
            else:
                t1 = mid
        z = (t0 + t1) / 2
        x = float(m + s * (-z if flip else z))
    return min(max(x, lo), hi)


def gamma_draw(shape, rate, rng: RngStream, size=None):
    """Gamma(shape, rate) draws; broadcasts over array arguments."""
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if (shape <= 0).any() or (rate <= 0).any():
        raise ValueError("gamma shape and rate must be positive")
    out = rng.generator.gamma(shape, 1.0 / rate, size=size)
    return out
