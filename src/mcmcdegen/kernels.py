"""Gibbs kernels for the cumulative link model, batched over chains.

Two parameterizations of the latent representation are supported:

* ``null``: z_i is standard (scale 1/g) normal truncated to
  (a^{y-1} + b'x_i, a^y + b'x_i]; the cut-points and slopes enter through
  the truncation window.
* ``beta``: the regression part is absorbed into the latent law,
  z_i ~ N(-b'x_i, 1/g^2) truncated to (a^{y-1}, a^y].

Each comes with and without marginal augmentation by a working scale g whose
square is Gamma(A0, B0) a priori; without augmentation g stays fixed at 1.
The updates operate on a batch of chains at once (leading axis B) so that a
whole replicate set advances under one RNG stream, making results
independent of how work is scheduled across threads. A batch of one chain
(a reference chain, a figure's trace, an R or R' chain) takes
``_sweep_one``: the same bits, without numpy's per-call cost on (1, .)
arrays. Every array of truncated-normal windows, of a batch or of one
chain, enters through ``_draw_window``: ``truncated_normal_vec``, which
draws the bulk in place and the tails by rejection, then the elementwise
rescue. ``run_chain`` is the one driver of a batch; ``apply_transform``
evaluates the named functionals of the state (raw, identified, cut points,
cut ratios) on its records.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
from scipy.linalg import cholesky
from scipy.linalg.lapack import dpotrs, dtrtrs
from scipy.special import gammaincinv

from .model import (A0, B0, SIGMA_ALPHA, SIGMA_BETA, Dataset, ModelConfig,
                    Theta, prior_theta_draws)
from .sampling import (
    DegenerateIntervalError,
    RngStream,
    gamma_draw,
    truncated_normal_extended,
    truncated_normal_vec,
)
from .sampling import _all, _any, _max, _min, _window_float, check_count

VARIANT_NAMES = ("binary-null", "binary-beta", "null", "beta", "null-ma", "beta-ma")


@dataclasses.dataclass(frozen=True)
class VariantId:
    """Which latent parameterization, and whether the scale is augmented."""

    name: str
    parameterization: str
    augmented: bool
    binary: bool

    @staticmethod
    def parse(name: "str | VariantId") -> "VariantId":
        """The variant of a name; a VariantId is returned as it is."""
        if isinstance(name, VariantId):
            return name
        table = {
            "binary-null": ("null", False, True),
            "binary-beta": ("beta", False, True),
            "null": ("null", False, False),
            "beta": ("beta", False, False),
            "null-ma": ("null", True, False),
            "beta-ma": ("beta", True, False),
        }
        if name not in table:
            raise ValueError(f"unknown variant {name!r}; expected one of {VARIANT_NAMES}")
        param, aug, binary = table[name]
        return VariantId(name=name, parameterization=param, augmented=aug, binary=binary)


@dataclasses.dataclass
class ChainState:
    """State of a batch of chains: (B, c-2) cuts, (B, p) slopes, (B,) scales."""

    alpha: np.ndarray
    beta: np.ndarray
    g: np.ndarray
    z: np.ndarray | None = None

    def __post_init__(self):
        self.alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        self.g = np.atleast_1d(np.asarray(self.g, dtype=float))
        if not (self.alpha.shape[0] == self.beta.shape[0] == self.g.shape[0]):
            raise ValueError("batch sizes of alpha, beta, g disagree")
        if np.any(self.g <= 0):
            raise ValueError("scales must be positive")

    @property
    def batch(self) -> int:
        return self.g.shape[0]

    def check_cone(self):
        a = self.alpha
        if a.shape[1] and (_any(a <= 0, axis=None)
                           or _any(a[:, 1:] <= a[:, :-1], axis=None)):
            raise AssertionError("cut-point ordering violated")


@dataclasses.dataclass(frozen=True)
class _Prepared:
    """What the sweeps use of (cfg, data) that no draw changes."""

    below: np.ndarray        # y - 1: column of each row's lower cut-point
    cut_rows: tuple          # per free cut-point j: rows with y == j, y == j + 1
    chol: np.ndarray         # lower Cholesky factor of X'X + I / sigma_beta^2
    template: np.ndarray     # the c + 1 cut-points, free ones 0


def _prepared(cfg: ModelConfig, data: Dataset) -> _Prepared:
    """The sweeps' constants, cached on ``data`` under ``cfg.c``: with the
    data fixed they depend on nothing else, and an int key skips hashing
    the config dataclass on every call."""
    cache = data._kernel_cache
    prep = cache.get(cfg.c)
    if prep is None:
        a = data.x.T @ data.x + np.eye(data.x.shape[1]) / SIGMA_BETA ** 2
        rows = data.category_rows
        prep = cache.setdefault(cfg.c, _Prepared(
            below=data.y - 1,
            cut_rows=tuple((rows[j - 1], rows[j]) for j in range(2, cfg.c)),
            chol=cholesky(a, lower=True),
            template=np.concatenate([[-np.inf], np.zeros(cfg.c - 1), [np.inf]]),
        ))
    return prep


def _latent_windows(alpha: np.ndarray, prep: _Prepared, data: Dataset,
                    bx=None):
    """Each row's latent window (a^{y-1}, a^y] at the free cut-points
    ``alpha``, a (B, c - 2) or one chain's (c - 2,) array: a take on the
    last axis of the full cut-points. ``bx`` is added in place when given,
    as the null parameterization needs."""
    cuts = np.empty(alpha.shape[:-1] + prep.template.shape)
    cuts[...] = prep.template
    cuts[..., 2:-1] = alpha
    lo = cuts.take(prep.below, axis=-1)
    hi = cuts.take(data.y, axis=-1)
    if bx is not None:
        lo += bx
        hi += bx
    return lo, hi


def draw_latent(cfg: ModelConfig, data: Dataset, state: ChainState,
                variant: VariantId, rng: RngStream) -> np.ndarray:
    """Refresh the latent block z | theta, g for every chain in the batch."""
    null = variant.parameterization == "null"
    bx = state.beta @ data.x.T
    lo, hi = _latent_windows(state.alpha, _prepared(cfg, data), data,
                             bx if null else None)
    state.z = _draw_window(None if null else -bx, (1.0 / state.g)[:, None],
                           lo, hi, rng)
    return state.z


def _draw_window(mean, sd, lo, hi, rng: RngStream) -> np.ndarray:
    """``truncated_normal_vec`` at ``mean`` (None is 0.0). A window that
    carries no double mass goes to ``_draw_careful``: a latent window far
    in the tail, or a shut window that ``_ensure_open`` opened by one ulp
    in the bulk."""
    try:
        return truncated_normal_vec(mean, sd, lo, hi, rng)
    except DegenerateIntervalError:
        return _draw_careful(0.0 if mean is None else mean, sd, lo, hi, rng)


def _draw_careful(mean, sd, lo, hi, rng: RngStream) -> np.ndarray:
    """Elementwise draws; a window whose double mass underflows goes to
    ``truncated_normal_extended``."""
    mean, sd, lo, hi = np.broadcast_arrays(mean, sd, lo, hi)
    out = np.empty(mean.shape)
    flat = [a.reshape(-1) for a in (mean, sd, lo, hi)]
    res = out.reshape(-1)
    for idx in range(res.size):
        m, s, a, b = (float(arr[idx]) for arr in flat)
        try:
            res[idx] = truncated_normal_vec(m, s, a, b, rng)
        except DegenerateIntervalError:
            res[idx] = truncated_normal_extended(m, s, a, b, rng)
    return out


def _ensure_open(lo: np.ndarray, hi: np.ndarray):
    """Nudge rounding-collapsed windows back open; real windows are a.s. nonempty."""
    return lo, np.maximum(hi, np.nextafter(lo, np.inf))


def _scan_alpha(cfg: ModelConfig, data: Dataset, state: ChainState,
                witness: np.ndarray, rng: RngStream):
    """One increasing sweep over the free cut-points.

    ``witness`` is z - b'x in the null parameterization and z in the beta
    one; category j requires a^j >= witness on {y = j} and a^j < witness on
    {y = j + 1}, on top of the ordering with the neighbors.
    """
    sd = SIGMA_ALPHA / state.g
    last = cfg.c - 3
    for col, (low_rows, high_rows) in enumerate(_prepared(cfg, data).cut_rows):
        lo = _max(witness[:, low_rows], axis=1, initial=-np.inf)
        hi = _min(witness[:, high_rows], axis=1, initial=np.inf)
        if col > 0:
            lo = np.maximum(lo, state.alpha[:, col - 1])
        else:
            lo = np.maximum(lo, 0.0)
        if col < last:
            hi = np.minimum(hi, state.alpha[:, col + 1])
        lo, hi = _ensure_open(lo, hi)
        state.alpha[:, col] = _draw_window(None, sd, lo, hi, rng)


def _scan_beta_null(cfg: ModelConfig, data: Dataset, state: ChainState,
                    rng: RngStream):
    """Coordinate sweep for the slopes in the null parameterization.

    Observation i confines b'x_i to [z_i - a^{y_i}, z_i - a^{y_i - 1});
    with the other coordinates held the window divides through by
    x_{ik} > 0.
    """
    al, au = _latent_windows(state.alpha, _prepared(cfg, data), data)
    z = state.z
    bx = state.beta @ data.x.T
    sd = SIGMA_BETA / state.g
    for k in range(cfg.p):
        xk = data.x[:, k]
        rest = bx - state.beta[:, k][:, None] * xk[None, :]
        lo = _max((z - au - rest) / xk[None, :], axis=1)
        hi = _min((z - al - rest) / xk[None, :], axis=1)
        lo, hi = _ensure_open(lo, hi)
        new = _draw_window(None, sd, lo, hi, rng)
        bx = rest + new[:, None] * xk[None, :]
        state.beta[:, k] = new


def _draw_beta_gaussian(cfg: ModelConfig, data: Dataset, state: ChainState,
                        rng: RngStream):
    """Conjugate slope draw in the beta parameterization.

    With A = X'X + I / sigma_beta^2 the conditional is
    N(-A^{-1} X'z, (g^2 A)^{-1}). The solves call LAPACK with the
    arguments scipy's ``cho_solve`` and ``solve_triangular`` pass for a
    Fortran-ordered lower factor, without their per-call input checks.
    """
    L = _prepared(cfg, data).chol
    rhs = -(state.z @ data.x)
    if not _all(np.isfinite(rhs), axis=None):
        raise ValueError("latent block is not finite")
    mean, info_mean = dpotrs(L, rhs.T, lower=1)
    xi = rng.generator.standard_normal((state.batch, cfg.p))
    shift, info_shift = dtrtrs(L, xi.T, lower=1, trans=1)
    if info_mean or info_shift:
        raise np.linalg.LinAlgError(
            f"slope solve failed: dpotrs info={info_mean}, "
            f"dtrtrs info={info_shift}"
        )
    state.beta = mean.T + shift.T / state.g[:, None]


def update_theta_null(cfg: ModelConfig, data: Dataset, state: ChainState,
                      rng: RngStream):
    bx = state.beta @ data.x.T
    _scan_alpha(cfg, data, state, state.z - bx, rng)
    _scan_beta_null(cfg, data, state, rng)
    state.check_cone()
    return state


def update_theta_beta(cfg: ModelConfig, data: Dataset, state: ChainState,
                      rng: RngStream):
    _scan_alpha(cfg, data, state, state.z, rng)
    _draw_beta_gaussian(cfg, data, state, rng)
    state.check_cone()
    return state


def update_g(cfg: ModelConfig, data: Dataset, state: ChainState,
             variant: VariantId, rng: RngStream):
    """Draw the working scale: g^2 | z, theta is Gamma.

    Shape a0 + (n + c - 2 + p) / 2; the rate adds half the latent sum of
    squares (recentred by b'x in the beta parameterization) and the
    prior quadratic forms of the raw parameters.
    """
    if not variant.augmented:
        return state
    if variant.parameterization == "null":
        resid = state.z
    else:
        resid = state.z + state.beta @ data.x.T
    shape = A0 + 0.5 * (data.n + cfg.c - 2 + cfg.p)
    rate = (
        B0
        + 0.5 * np.sum(resid * resid, axis=1)
        + 0.5 * np.sum(state.alpha * state.alpha, axis=1) / SIGMA_ALPHA ** 2
        + 0.5 * np.sum(state.beta * state.beta, axis=1) / SIGMA_BETA ** 2
    )
    if state.batch == 1:  # the same variate, without numpy's array loop
        rate = float(rate[0])
    state.g = np.sqrt(np.atleast_1d(gamma_draw(shape, rate, rng)))
    return state


def _fmax(a: float, b: float) -> float:
    """``np.maximum`` on floats: NaN propagates, a tie takes ``b``."""
    return a if a > b or a != a else b


def _fmin(a: float, b: float) -> float:
    """``np.minimum`` on floats: NaN propagates, a tie takes ``b``."""
    return a if a < b or a != a else b


def _draw_open(sd: float, lo: float, hi: float, rng: RngStream) -> float:
    """``_ensure_open`` and ``_draw_window(None, sd, lo, hi)`` on one chain's
    (1,) window, in floats; a window ``_window_float`` refuses takes
    ``_draw_window``."""
    hi = _fmax(hi, math.nextafter(lo, math.inf))
    x = _window_float(0.0, sd, lo, hi, rng.generator)
    if x is None:
        return _draw_window(None, sd, np.array([lo]), np.array([hi]),
                            rng).item()
    return x


def _sweep_one(cfg: ModelConfig, data: Dataset, state: ChainState,
               variant: VariantId, rng: RngStream):
    """``kernel_step`` for a batch of one chain: the generic sweep's
    arithmetic in its order on 1-D arrays and Python floats, with the same
    bits and uniforms. b'x stays a (1, n) product, which a one-row product
    may round differently."""
    prep = _prepared(cfg, data)
    null = variant.parameterization == "null"
    alpha = state.alpha[0].tolist()
    bx = (state.beta @ data.x.T)[0]
    lo, hi = _latent_windows(state.alpha[0], prep, data,
                             bx if null else None)
    z = _draw_window(None if null else -bx, float(1.0 / state.g[0]), lo, hi,
                     rng)
    state.z = z.reshape(1, -1)
    update_g(cfg, data, state, variant, rng)
    g = state.g[0]
    witness = z - bx if null else z
    sd = float(SIGMA_ALPHA / g)
    for col, (low_rows, high_rows) in enumerate(prep.cut_rows):
        lo = float(_max(witness.take(low_rows), initial=-np.inf))
        hi = float(_min(witness.take(high_rows), initial=np.inf))
        lo = _fmax(lo, alpha[col - 1] if col else 0.0)
        if col + 1 < len(alpha):
            hi = _fmin(hi, alpha[col + 1])
        alpha[col] = _draw_open(sd, lo, hi, rng)
    if alpha:
        state.alpha[0] = alpha

    if null:
        al, au = _latent_windows(state.alpha[0], prep, data)
        beta = state.beta[0].tolist()
        sd = float(SIGMA_BETA / g)
        for k, xk in enumerate(data.x.T):
            rest = bx - beta[k] * xk
            lo = float(_max((z - au - rest) / xk))
            hi = float(_min((z - al - rest) / xk))
            beta[k] = _draw_open(sd, lo, hi, rng)
            bx = rest + beta[k] * xk
        state.beta[0] = beta
    else:
        _draw_beta_gaussian(cfg, data, state, rng)
    if (any(v <= 0 for v in alpha)
            or any(v <= u for u, v in zip(alpha, alpha[1:]))):
        raise AssertionError("cut-point ordering violated")
    return state


def kernel_step(cfg: ModelConfig, data: Dataset, state: ChainState,
                variant: VariantId, rng: RngStream):
    """One full Gibbs sweep: latents, then scale (if augmented), then theta.
    A batch of one chain takes ``_sweep_one``, with the same bits."""
    if state.batch == 1:
        return _sweep_one(cfg, data, state, variant, rng)
    draw_latent(cfg, data, state, variant, rng)
    update_g(cfg, data, state, variant, rng)
    if variant.parameterization == "null":
        update_theta_null(cfg, data, state, rng)
    else:
        update_theta_beta(cfg, data, state, rng)
    return state


TRANSFORMS = ("theta", "g-theta", "alpha", "alpha-ratio")


def transform_dim(name: str, c: int, p: int) -> int:
    """Output dimension of a named transform at (c, p); refuses an unknown
    name, and a cut-point transform with too few categories."""
    if name not in TRANSFORMS:
        raise ValueError(f"unknown transform {name!r}; expected one of {TRANSFORMS}")
    least = {"alpha": 3, "alpha-ratio": 4}.get(name, 2)
    if c < least:
        raise ValueError(f"{name} transform needs c >= {least}")
    return c - 2 + p if least == 2 else c - least + 1


def apply_transform(alpha, beta, g, name: str) -> np.ndarray:
    """Evaluate a named functional of the state on (..., dim) blocks, with
    ``g`` shaped like their leading axes.

    ``theta`` is the raw parameter, ``g-theta`` the identified rescaling,
    ``alpha`` the cut-point block, and ``alpha-ratio`` the consecutive
    cut-point ratios (needs c >= 4).
    """
    transform_dim(name, alpha.shape[-1] + 2, beta.shape[-1])
    if name == "alpha":
        return alpha.copy()
    if name == "alpha-ratio":
        return alpha[..., 1:] / alpha[..., :-1]
    theta = np.concatenate([alpha, beta], axis=-1)
    return theta if name == "theta" else g[..., None] * theta


def transform_names(variant: VariantId, c: int, p: int) -> list[str]:
    names = []
    if variant.augmented:
        names += [f"galpha{j}" for j in range(2, c)]
        names += [f"gbeta{k}" for k in range(1, p + 1)]
    if c >= 4:
        names += [f"ratio{j + 1}{j}" for j in range(2, c - 1)]
    return names


def transform_values(alpha: np.ndarray, beta: np.ndarray, g: np.ndarray,
                     variant: VariantId, c: int, p: int) -> np.ndarray:
    """Derived trace columns matching transform_names; inputs (..., dim)."""
    cols = [np.empty(alpha.shape[:-1] + (0,))]
    if variant.augmented:
        cols.append(apply_transform(alpha, beta, g, "g-theta"))
    if c >= 4:
        cols.append(apply_transform(alpha, beta, g, "alpha-ratio"))
    return np.concatenate(cols, axis=-1)


@dataclasses.dataclass
class ChainTrace:
    """Recorded states of a batch of chains: arrays shaped (records, B, .)."""

    variant: VariantId
    c: int
    p: int
    steps: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    g: np.ndarray

    def transform(self, name: str) -> np.ndarray:
        """A named transform of every recorded state: (records, B, dim)."""
        return apply_transform(self.alpha, self.beta, self.g, name)

    def header(self) -> list[str]:
        cols = (
            ["step"]
            + [f"alpha{j}" for j in range(2, self.c)]
            + [f"beta{k}" for k in range(1, self.p + 1)]
            + ["g"]
        )
        return cols + transform_names(self.variant, self.c, self.p)

    def save(self, path) -> None:
        """Write the batch's first chain as CSV (step,alpha...,beta...,g,...)."""
        alpha, beta, g = self.alpha[:, 0], self.beta[:, 0], self.g[:, 0]
        extra = transform_values(alpha, beta, g, self.variant, self.c, self.p)
        body = np.concatenate([alpha, beta, g[:, None], extra], axis=1)
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.header())
            for step, row in zip(self.steps, body):
                writer.writerow([int(step)] + [format(v, ".17g") for v in row])


def trace_filename(variant: VariantId, n: int) -> str:
    return f"{variant.name}_n{n}_r0.csv"


def load_trace(path) -> dict:
    """Read a saved chain CSV back into named columns."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    arr = np.asarray(rows)
    return {name: arr[:, i] for i, name in enumerate(header)}


def check_variant(variant: VariantId, c: int) -> None:
    """Refuse a kernel at a number of categories it is not defined for."""
    if variant.binary and c != 2:
        raise ValueError("binary kernels require c = 2")


def initial_state(cfg: ModelConfig, variant: VariantId, batch: int,
                  rng: RngStream, *, init: str = "fixed",
                  theta: Theta | None = None,
                  reference: np.ndarray | None = None,
                  g_quantiles: np.ndarray | None = None) -> ChainState:
    """Build a batch start: a fixed point, prior draws, or bank rows.

    ``reference`` rows are draws of the identified parameter; augmented
    variants convert a row u into (theta, g) = (u / g, g) with a fresh prior
    scale, which reproduces the exact joint posterior of the expanded model.
    ``g_quantiles`` maps given uniforms through the prior quantile function
    instead of drawing the scales, so callers can stratify over the scale
    mixture; the rows stay independent of the scales either way.
    """
    check_variant(variant, cfg.c)
    if init == "fixed":
        if theta is None:
            raise ValueError("fixed init needs a theta")
        cfg.validate_theta(theta)
        alpha = np.tile(theta.alpha, (batch, 1))
        beta = np.tile(theta.beta, (batch, 1))
        return ChainState(alpha=alpha, beta=beta, g=np.ones(batch))
    if init == "prior":
        vec = prior_theta_draws(cfg, batch, rng.child("init-theta"))
    elif init == "reference-posterior":
        if reference is None:
            raise ValueError("reference-posterior init needs a draw bank")
        bank = np.atleast_2d(np.asarray(reference, dtype=float))
        gen = rng.child("init-pick").generator
        if batch <= bank.shape[0]:
            idx = gen.permutation(bank.shape[0])[:batch]
        else:
            idx = gen.integers(0, bank.shape[0], size=batch)
        vec = bank[idx]
    else:
        raise ValueError(f"unknown init policy {init!r}")
    if variant.augmented:
        if g_quantiles is not None:
            q = np.asarray(g_quantiles, dtype=float)
            if q.shape != (batch,):
                raise ValueError("g_quantiles must have one value per chain")
            g = np.sqrt(gammaincinv(A0, q) * (1.0 / B0))
        else:
            g = np.sqrt(gamma_draw(A0, B0, rng.child("init-g"), size=batch))
        vec = vec / g[:, None]
    else:
        g = np.ones(batch)
    return ChainState(alpha=vec[:, : cfg.c - 2], beta=vec[:, cfg.c - 2 :], g=g)


def run_chain(cfg: ModelConfig, data: Dataset, variant: VariantId | str,
              n_steps: int, rng: RngStream, *, init: str = "fixed",
              theta: Theta | None = None,
              reference: np.ndarray | None = None, batch: int = 1,
              record_every: int = 1,
              state: ChainState | None = None) -> ChainTrace:
    """Advance a batch of chains n_steps, recording every record_every-th state.

    The initial state is recorded as step 0. Pass ``state`` to continue from
    an existing batch instead of building one from the init policy.
    """
    variant = VariantId.parse(variant)
    check_count("n_steps (m)", n_steps, 0)
    check_count("record_every", record_every)
    if state is None:
        state = initial_state(cfg, variant, batch, rng, init=init, theta=theta,
                              reference=reference)
    recs = [0] + [t for t in range(1, n_steps + 1) if t % record_every == 0]
    R = len(recs)
    alpha = np.empty((R, state.batch, cfg.c - 2))
    beta = np.empty((R, state.batch, cfg.p))
    g = np.empty((R, state.batch))
    slot = 0

    def record(t):
        nonlocal slot
        alpha[slot] = state.alpha
        beta[slot] = state.beta
        g[slot] = state.g
        slot += 1

    record(0)
    for t in range(1, n_steps + 1):
        kernel_step(cfg, data, state, variant, rng)
        if t % record_every == 0:
            record(t)
    return ChainTrace(variant=variant, c=cfg.c, p=cfg.p,
                      steps=np.asarray(recs), alpha=alpha, beta=beta, g=g)
