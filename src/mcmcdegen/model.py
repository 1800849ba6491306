"""Cumulative probit model: prior, data generation, likelihood, information.

The observation model is ordinal probit regression with ordered cut-points:

    P(y <= j | x) = Phi(alpha^j + beta' x),   j = 1, ..., c,

with the dummy cut-points alpha^0 = -inf, alpha^1 = 0, alpha^c = +inf never
stored, and the free ones constrained to 0 < alpha^2 < ... < alpha^{c-1}.
When c = 2 the parameter reduces to theta = beta and the model is binary
probit. Covariates are uniform on the unit cube. Below, Phi is the standard
normal CDF (``ndtr``) and phi its density (``_phi``).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .sampling import RngStream, _all, _any, _sum, check_count

_NORM_CONST = 1.0 / math.sqrt(2.0 * math.pi)
_FISHER_BLOCK = 4096   # Monte Carlo rows per block in fisher_information; bounds its temporaries
_LIKELIHOOD_CHUNK = 4096    # observations per chunk in log_likelihood_batch
_LIKELIHOOD_BLOCK = 1 << 15  # draw x observation cells per block; keeps its temporaries in L2
_DRAW_CHUNK = 1024          # draws per b'x product in log_likelihood_batch; bounds its memory
_QUAD_TOL = 1e-12           # absolute and relative tolerance of the scale-constant quadratures
_FISHER_QUAD_TOL = 1e-10    # the same for the information quadrature at p = 1
_PRIOR_ROUNDS = 10_000      # rejection rounds of prior_theta_draws before it gives up

#: The prior: independent N(0, SIGMA_ALPHA^2) cut-points restricted to the
#: ordered cone, spherical N(0, SIGMA_BETA^2 I) slopes, and g^2 ~ Gamma(A0,
#: B0) for the working scale of marginal augmentation.
SIGMA_ALPHA = 10.0
SIGMA_BETA = 10.0
A0 = 0.5
B0 = 0.5


class NumericalFailure(RuntimeError):
    """Raised when a numeric routine produces an unusable result."""


def _phi(z):
    return _NORM_CONST * np.exp(-0.5 * np.asarray(z, dtype=float) ** 2)


@dataclasses.dataclass(frozen=True)
class CovariateSpec:
    """Covariate dimension; the covariates are uniform on the unit cube."""

    p: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("covariate dimension must be >= 1")


@dataclasses.dataclass(frozen=True, eq=False)
class Theta:
    """Model parameter: ordered free cut-points and regression vector."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.atleast_1d(np.asarray(self.alpha, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_1d(np.asarray(self.beta, dtype=float)))
        a = self.alpha
        if a.size:
            if not np.all(a > 0) or not np.all(np.diff(a) > 0):
                raise ValueError(f"cut-points must satisfy 0 < a2 < ... : {a}")

    @property
    def c(self) -> int:
        return self.alpha.size + 2

    @property
    def p(self) -> int:
        return self.beta.size

    @property
    def dim(self) -> int:
        return self.alpha.size + self.beta.size

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])

    @staticmethod
    def from_vector(vec, c: int, p: int) -> "Theta":
        vec = np.asarray(vec, dtype=float)
        if vec.size != c - 2 + p:
            raise ValueError(f"expected length {c - 2 + p}, got {vec.size}")
        return Theta(alpha=vec[: c - 2], beta=vec[c - 2 :])


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    c: int = 2
    covariates: CovariateSpec = CovariateSpec()

    def __post_init__(self):
        if self.c < 2:
            raise ValueError("need at least two categories")

    @property
    def p(self) -> int:
        return self.covariates.p

    @property
    def dim(self) -> int:
        return self.c - 2 + self.p

    def validate_theta(self, theta: Theta):
        if theta.alpha.size != self.c - 2 or theta.beta.size != self.p:
            raise ValueError(
                f"theta shaped for (c={theta.c}, p={theta.p}); "
                f"config wants (c={self.c}, p={self.p})"
            )


@dataclasses.dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray
    c: int
    true_theta: Theta | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_2d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=int))
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y row counts differ")
        if self.y.size and (self.y.min() < 1 or self.y.max() > self.c):
            raise ValueError("labels must lie in 1..c")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @functools.cached_property
    def category_rows(self) -> tuple:
        """Rows of each category, ascending: entry j - 1 holds the rows
        with y == j. Built once from ``y``, so ``y`` must not be mutated
        afterwards; the arrays are read-only."""
        rows = tuple(np.flatnonzero(self.y == j) for j in range(1, self.c + 1))
        for r in rows:
            r.flags.writeable = False
        return rows

    @functools.cached_property
    def _likelihood_chunks(self) -> tuple:
        """``log_likelihood_batch``'s chunks of ``_LIKELIHOOD_CHUNK`` rows:
        (start, stop, each category j present with its chunk columns)."""
        chunks = []
        for start in range(0, self.n, _LIKELIHOOD_CHUNK):
            stop = min(start + _LIKELIHOOD_CHUNK, self.n)
            groups = []
            for j, rows in enumerate(self.category_rows, start=1):
                lo, hi = rows.searchsorted((start, stop))
                if hi > lo:
                    groups.append((j, rows[lo:hi] - start))
            chunks.append((start, stop, groups))
        return tuple(chunks)

    @functools.cached_property
    def _kernel_cache(self) -> dict:
        """Values the Gibbs kernels derive once from (cfg, this dataset).

        Keyed by the number of categories and filled by ``kernels``; entries
        depend only on the key and the data, so writes are idempotent. The
        data arrays must not be mutated once the cache is in use.
        """
        return {}


def full_cuts(theta: Theta, c: int) -> np.ndarray:
    """All cut-points including the dummies: [-inf, 0, alpha..., +inf]."""
    return np.concatenate([[-np.inf, 0.0], theta.alpha, [np.inf]])


def cumulative_probs(cfg: ModelConfig, theta: Theta, x) -> np.ndarray:
    """Matrix Phi(alpha^j + beta'x) for j = 0..c over rows of x."""
    cfg.validate_theta(theta)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    cuts = full_cuts(theta, cfg.c)
    bx = x @ theta.beta
    arg = cuts[None, :] + bx[:, None]
    out = np.empty_like(arg)
    out[:, 0] = 0.0
    out[:, -1] = 1.0
    out[:, 1:-1] = ndtr(arg[:, 1:-1])
    return out


def cell_probabilities(cfg: ModelConfig, theta: Theta, x) -> np.ndarray:
    """Matrix of P(y = j | x) for j = 1..c over rows of x."""
    cum = cumulative_probs(cfg, theta, x)
    return np.diff(cum, axis=1)


def sample_dataset(cfg: ModelConfig, theta0: Theta, n: int, seed: int) -> Dataset:
    """Generate n observations: x uniform on the unit cube, y from the model."""
    cfg.validate_theta(theta0)
    check_count("n", n)
    rng = RngStream(seed, "dataset")
    gen = rng.generator
    x = gen.random((n, cfg.p))
    cum = cumulative_probs(cfg, theta0, x)[:, 1:-1]
    u = gen.random(n)
    y = 1 + np.sum(u[:, None] >= cum, axis=1)
    return Dataset(x=x, y=y, c=cfg.c, true_theta=theta0, seed=int(seed))


def _cell_gradients(cfg: ModelConfig, theta: Theta, x):
    """Gradients and values of the cell probabilities over rows of x.

    Returns G of shape (rows, c, dim), with G[r, j - 1] the gradient in theta
    of P(y = j | x_r), and P of shape (rows, c). Cut-point i moves cell i up
    and cell i + 1 down by phi(alpha^i + beta'x); the slopes move cell j by
    x (phi(alpha^j + beta'x) - phi(alpha^{j-1} + beta'x)).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    P = cell_probabilities(cfg, theta, x)
    cuts = full_cuts(theta, cfg.c)
    finite = np.isfinite(cuts)
    dens = np.zeros((x.shape[0], cfg.c + 1))
    dens[:, finite] = _phi(cuts[None, finite] + (x @ theta.beta)[:, None])

    G = np.zeros((x.shape[0], cfg.c, cfg.dim))
    for i in range(2, cfg.c):
        G[:, i - 1, i - 2] = dens[:, i]
        G[:, i, i - 2] = -dens[:, i]
    G[:, :, cfg.c - 2 :] = (dens[:, 1:] - dens[:, :-1])[:, :, None] * x[:, None, :]
    return G, P


@dataclasses.dataclass(frozen=True)
class FisherInformation:
    matrix: np.ndarray
    method: str
    detail: dict


def _information_terms(cfg: ModelConfig, theta: Theta, x) -> np.ndarray:
    """Per-row sum_j grad p_j grad p_j' / p_j, skipping cells with p_j <= 1e-300."""
    G, P = _cell_gradients(cfg, theta, x)
    live = P > 1e-300
    scaled = np.divide(G, P[:, :, None], out=np.zeros_like(G), where=live[:, :, None])
    return np.einsum("rjd,rje->rde", scaled, G)


def fisher_information(cfg: ModelConfig, theta: Theta, mc_size: int = 100_000,
                       seed: int = 20_240_601) -> FisherInformation:
    """Information matrix I(theta) = E[grad log p grad log p'] over (x, y).

    Quadrature over the unit interval when p = 1, Monte Carlo over the cube
    otherwise; the Monte Carlo rows are processed in blocks of
    ``_FISHER_BLOCK`` so memory stays flat in ``mc_size``. The integration
    settings land in ``detail`` so reports can cite them. Raises
    NumericalFailure if the result is not positive definite beyond rounding.
    """
    from scipy import integrate

    cfg.validate_theta(theta)
    d = cfg.dim

    if cfg.p == 1:
        res = integrate.quad_vec(
            lambda t: _information_terms(cfg, theta, [[t]]).reshape(-1),
            0.0, 1.0, epsabs=_FISHER_QUAD_TOL, epsrel=_FISHER_QUAD_TOL,
        )
        matrix = res[0].reshape(d, d)
        detail = {"quad_tol": _FISHER_QUAD_TOL, "quad_error": float(np.max(res[1]))}
        method = "quadrature"
    else:
        gen = RngStream(seed, "fisher-mc").generator
        xs = gen.random((mc_size, cfg.p))
        acc = np.zeros((d, d))
        acc2 = np.zeros((d, d))
        for start in range(0, mc_size, _FISHER_BLOCK):
            terms = _information_terms(cfg, theta, xs[start : start + _FISHER_BLOCK])
            acc += terms.sum(axis=0)
            acc2 += np.sum(terms * terms, axis=0)
        matrix = acc / mc_size
        var = acc2 / mc_size - matrix * matrix
        detail = {
            "mc_size": mc_size,
            "seed": seed,
            "entry_se_max": float(np.sqrt(np.max(var) / mc_size)),
        }
        method = "monte-carlo"

    matrix = 0.5 * (matrix + matrix.T)
    eigs = np.linalg.eigvalsh(matrix)
    if eigs.min() <= -1e-8 * max(eigs.max(), 1.0):
        raise NumericalFailure(f"information matrix not positive definite: {eigs}")
    detail["min_eig"] = float(eigs.min())
    return FisherInformation(matrix=matrix, method=method, detail=detail)


def scale_constants():
    """Density-weighted scale constants of the probit link.

    With dlogphi(z) = -z the log-density derivative,
    K = int (1 + z dlogphi(z))^2 phi(z) dz = 2 and
    L = int dlogphi(z) (z dlogphi(z) + 1) phi(z) dz = 0.

    The phi(z) dz weighting is what every downstream closed form needs; the
    unweighted integrals do not converge.
    """
    from scipy import integrate

    def k_int(z):
        return (1.0 - z * z) ** 2 * float(_phi(z))

    def l_int(z):
        return -z * (1.0 - z * z) * float(_phi(z))

    K, kerr = integrate.quad(k_int, -np.inf, np.inf, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
    L, lerr = integrate.quad(l_int, -np.inf, np.inf, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL)
    if max(kerr, lerr) > 1e-8:
        raise NumericalFailure("scale constant quadrature did not converge")
    return float(K), float(L)


def score_second_moment() -> float:
    """J0 = int (phi'(z)/phi(z))^2 phi(z) dz = 1, the per-draw latent score
    variance."""
    from scipy import integrate

    val, err = integrate.quad(
        lambda z: z ** 2 * float(_phi(z)),
        -np.inf, np.inf, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
    )
    if err > 1e-8:
        raise NumericalFailure("latent score quadrature did not converge")
    return float(val)


def _off_cone(out: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``out``, -inf on the rows of ``alpha`` off the cone 0 < a2 < ... (NaN too)."""
    if alpha.shape[1]:
        out[~(_all(alpha > 0, axis=1)
              & _all(alpha[:, 1:] > alpha[:, :-1], axis=1))] = -np.inf
    return out


def _prior_exponent(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The log prior inside the cone, up to its constant."""
    return (-0.5 * _sum(alpha * alpha, axis=1) / SIGMA_ALPHA ** 2
            - 0.5 * _sum(beta * beta, axis=1) / SIGMA_BETA ** 2)


def log_likelihood_batch(cfg: ModelConfig, alpha, beta, data: Dataset) -> np.ndarray:
    """Log likelihood of the dataset at a batch of parameter values.

    Vectorized over a (B, c-2) cut block and (B, p) slope block; rows off
    the cone get -inf, as does a row with a cell that rounds to 0 or below.
    The observations are taken in chunks of ``_LIKELIHOOD_CHUNK`` and the
    draws in chunks of ``_DRAW_CHUNK``: b'x is one matrix product per pair
    of chunks, which bounds its memory. The rows are scored in blocks of
    about ``_LIKELIHOOD_BLOCK`` cells, so every temporary stays in cache.
    Within a block each category's observations (``Dataset.category_rows``)
    are gathered once and need one ``ndtr`` at an end category, two in the
    middle: category 1 has Phi(0 + b'x), category c has 1 - Phi(alpha^{c-1}
    + b'x). The cells are scattered back into observation order before the
    log and the row sum, so every value has the bits of the plain two-sided
    formula on finite parameters. At p > 1 the BLAS may round a row of b'x
    differently in a product of another row count, so a call of more than
    ``_DRAW_CHUNK`` rows may differ in its last bits from a whole-batch
    product; no caller relies on one (SIR always cut its pool this way).
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    B, c = alpha.shape[0], alpha.shape[1] + 2
    out = np.zeros(B)
    cuts = np.concatenate([np.zeros((B, 1)), alpha], axis=1)  # alpha^1 .. alpha^{c-1}
    for start, stop, groups in data._likelihood_chunks:
        xt = data.x[start:stop].T
        step = max(1, _LIKELIHOOD_BLOCK // (stop - start))
        for d0 in range(0, B, _DRAW_CHUNK):
            bx = beta[d0 : d0 + _DRAW_CHUNK] @ xt
            for r0 in range(0, bx.shape[0], step):
                block = bx[r0 : r0 + step]
                rows = slice(d0 + r0, d0 + r0 + block.shape[0])
                cell = _category_cells(block, cuts[rows], groups, c)
                bad = cell <= 0
                hit = _any(bad, axis=None)
                if hit:
                    cell[bad] = 1.0
                np.log(cell, out=cell)
                out[rows] += _sum(cell, axis=1)
                if hit:
                    out[rows][_any(bad, axis=1)] = -np.inf
    return _off_cone(out, alpha)


def _category_cells(bx: np.ndarray, cuts: np.ndarray, groups: list,
                    c: int) -> np.ndarray:
    """Cell probabilities P(y_i | x_i) of a row block, in observation order.

    ``groups`` pairs each category j present with its columns of ``bx``;
    ``cuts`` holds the block's alpha^1 = 0 .. alpha^{c-1} in its columns.
    """
    cell = np.empty(bx.shape)
    for j, cols in groups:
        b = bx[:, cols]
        if j == c:
            p = ndtr(cuts[:, j - 2, None] + b)
            np.subtract(1.0, p, out=p)
        else:
            p = ndtr(cuts[:, j - 1, None] + b)
            if j > 1:
                p -= ndtr(cuts[:, j - 2, None] + b)
        cell[:, cols] = p
    return cell


def log_posterior_batch(cfg: ModelConfig, alpha, beta, data: Dataset) -> np.ndarray:
    """Unnormalized log posterior over a batch of parameter values: the mode
    search and the Hessian score one row, SIR the whole pool. The
    likelihood is -inf wherever the prior is (off the cone, NaN cut-points
    included), so the prior's exponent is added only elsewhere."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    out = log_likelihood_batch(cfg, alpha, beta, data)
    return np.add(out, _prior_exponent(alpha, beta), out=out, where=out != -np.inf)


def prior_theta_draws(cfg: ModelConfig, size: int, rng: RngStream) -> np.ndarray:
    """i.i.d. draws of theta from the prior restricted to the ordered cone.

    Rejection on the cone: sort the normals (the conditioned law of an
    exchangeable vector given an ordering is its order statistics) and keep
    draws whose smallest coordinate is positive.
    """
    gen = rng.generator
    k = cfg.c - 2
    out = np.empty((size, cfg.dim))
    filled = 0
    for _ in range(_PRIOR_ROUNDS):
        if filled >= size:
            break
        need = size - filled
        beta = gen.normal(0.0, SIGMA_BETA, (need, cfg.p))
        if k:
            alpha = np.sort(gen.normal(0.0, SIGMA_ALPHA, (need, k)), axis=1)
            ok = alpha[:, 0] > 0
            alpha, beta = alpha[ok], beta[ok]
        else:
            alpha = np.empty((need, 0))
        got = alpha.shape[0]
        out[filled : filled + got] = np.concatenate([alpha, beta], axis=1)
        filled += got
    else:
        raise NumericalFailure("cone rejection sampler starved")
    return out


def save_dataset(data: Dataset, path) -> None:
    """Write the dataset as CSV (x1..xp,y) with a JSON sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k + 1}" for k in range(data.p)] + ["y"])
        for row, label in zip(data.x, data.y):
            writer.writerow([format(v, ".17g") for v in row] + [int(label)])
    sidecar = {
        "n": data.n,
        "c": data.c,
        "p": data.p,
        "seed": data.seed,
        "theta0": None
        if data.true_theta is None
        else {
            "alpha": [float(v) for v in data.true_theta.alpha],
            "beta": [float(v) for v in data.true_theta.beta],
        },
    }
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_dataset(path) -> Dataset:
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    rows = []
    labels = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p = len(header) - 1
        for row in reader:
            rows.append([float(v) for v in row[:p]])
            labels.append(int(row[p]))
    theta0 = None
    if meta.get("theta0") is not None:
        theta0 = Theta(alpha=np.asarray(meta["theta0"]["alpha"], dtype=float),
                       beta=np.asarray(meta["theta0"]["beta"], dtype=float))
    return Dataset(x=np.asarray(rows), y=np.asarray(labels), c=int(meta["c"]),
                   true_theta=theta0, seed=meta.get("seed"))
