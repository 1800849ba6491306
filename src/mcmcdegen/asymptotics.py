"""Reference posteriors, information matrices, and kernel approximations.

The "true posterior" that risks are measured against is an empirical sample:
either a long thinned run of the best-mixing implemented kernel
(``build_reference``), or importance resampling from an inflated Laplace
proposal (``build_reference_sir``) when many independent references are
needed cheaply. A normal surrogate N(theta_hat, I^{-1}/n) rides along as a
cross-check, not as the target.

The information side provides the augmented-model matrix K_M in the form a
Monte Carlo score simulation supports (``km_matrix_effective``); for the
probit link its slope block is half that of the quoted closed form.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
from scipy import optimize, stats

from .kernels import VariantId, run_chain
from .metrics import central_value
from .model import (
    Dataset,
    ModelConfig,
    NumericalFailure,
    Theta,
    fisher_information,
    log_posterior_batch,
    scale_constants,
    score_second_moment,
)
from .sampling import RngStream


@dataclasses.dataclass
class ReferencePosterior:
    """Empirical reference sample of the identified parameter."""

    sample: np.ndarray
    theta_hat: np.ndarray
    bvm_mean: np.ndarray
    bvm_cov: np.ndarray
    n: int
    provenance: dict
    warnings: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        self.sample = np.atleast_2d(np.asarray(self.sample, dtype=float))
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        self.bvm_mean = np.asarray(self.bvm_mean, dtype=float)
        self.bvm_cov = np.atleast_2d(np.asarray(self.bvm_cov, dtype=float))

    @property
    def size(self) -> int:
        return self.sample.shape[0]

    @property
    def dim(self) -> int:
        return self.sample.shape[1]

    def save(self, path) -> None:
        """CSV of the sample plus a JSON sidecar with the summaries."""
        path = Path(path)
        header = ",".join(f"t{k + 1}" for k in range(self.dim))
        np.savetxt(path, self.sample, delimiter=",", header=header,
                   comments="", fmt="%.17g")
        sidecar = {
            "theta_hat": self.theta_hat.tolist(),
            "bvm_mean": self.bvm_mean.tolist(),
            "bvm_cov": self.bvm_cov.tolist(),
            "n": self.n,
            "provenance": self.provenance,
            "warnings": self.warnings,
        }
        path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")

    @staticmethod
    def load(path) -> "ReferencePosterior":
        path = Path(path)
        sample = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        meta = json.loads(path.with_suffix(".json").read_text())
        return ReferencePosterior(
            sample=sample,
            theta_hat=np.asarray(meta["theta_hat"]),
            bvm_mean=np.asarray(meta["bvm_mean"]),
            bvm_cov=np.asarray(meta["bvm_cov"]),
            n=int(meta["n"]),
            provenance=meta["provenance"],
            warnings=list(meta.get("warnings", [])),
        )


def _split_half_ks(sample: np.ndarray) -> float:
    """Smallest per-coordinate KS p-value between the run's two halves."""
    half = sample.shape[0] // 2
    pvals = []
    for d in range(sample.shape[1]):
        res = stats.ks_2samp(sample[:half, d], sample[half : 2 * half, d])
        pvals.append(res.pvalue)
    return float(min(pvals))


def build_reference(cfg: ModelConfig, data: Dataset, seed: int,
                    length: int = 200_000, burn: int = 10_000,
                    thin: int = 10) -> ReferencePosterior:
    """Long-run reference: the latent-shift kernel, thinned after burn-in.

    The latent-shift (beta) parameterization is the best-mixing implemented
    kernel, and shares its stationary law with the others, so it serves as
    the reference for all of them. A split-half KS check guards against
    non-convergence: on failure the run length is doubled once and a warning
    is recorded either way.
    """
    variant = VariantId.parse("binary-beta" if cfg.c == 2 else "beta")
    rng = RngStream(seed, "reference")
    mode = _posterior_mode(cfg, data)
    warnings = []
    cur_length = length
    for attempt in range(2):
        trace = run_chain(
            cfg, data, variant, burn + cur_length, rng.child("run", attempt),
            init="fixed", theta=mode, batch=1, record_every=thin,
        )
        keep = trace.steps > burn
        sample = trace.transform("theta")[keep, 0, :]
        pmin = _split_half_ks(sample)
        if pmin >= 1e-3:
            break
        warnings.append(
            f"split-half KS p={pmin:.2e} at length {cur_length}; doubling"
        )
        cur_length *= 2
    else:
        warnings.append(f"split-half KS still failing (p={pmin:.2e}) after doubling")

    theta_hat = central_value(sample)
    info = fisher_information(cfg, Theta.from_vector(theta_hat, cfg.c, cfg.p))
    bvm_cov = np.linalg.inv(info.matrix) / data.n
    return ReferencePosterior(
        sample=sample,
        theta_hat=theta_hat,
        bvm_mean=theta_hat,
        bvm_cov=bvm_cov,
        n=data.n,
        provenance={
            "method": "chain",
            "variant": variant.name,
            "length": cur_length,
            "burn": burn,
            "thin": thin,
            "seed": seed,
            "split_half_ks_p": pmin,
            "fisher": info.detail | {"method": info.method},
        },
        warnings=warnings,
    )


def _free_to_cone(vec: np.ndarray, c: int, p: int) -> Theta:
    k = c - 2
    alpha = np.cumsum(np.exp(vec[:k])) if k else np.empty(0)
    return Theta(alpha=alpha, beta=vec[k:])


def _posterior_mode(cfg: ModelConfig, data: Dataset) -> Theta:
    """Posterior mode via a smooth reparameterization of the ordering cone."""
    k = cfg.c - 2

    def neg(v):
        th = _free_to_cone(v, cfg.c, cfg.p)
        val = log_posterior_batch(cfg, th.alpha[None, :], th.beta[None, :], data)[0]
        return -val if np.isfinite(val) else 1e12

    v0 = np.concatenate([np.full(k, math.log(0.5)), np.zeros(cfg.p)])
    res = optimize.minimize(neg, v0, method="Nelder-Mead",
                            options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-8})
    if not np.all(np.isfinite(res.x)):
        raise NumericalFailure("posterior mode search failed")
    return _free_to_cone(res.x, cfg.c, cfg.p)


def _hessian_fd(fun, x0: np.ndarray, h: float = 1e-4) -> np.ndarray:
    d = x0.size
    H = np.empty((d, d))
    steps = h * (1.0 + np.abs(x0))
    f0 = fun(x0)
    for i in range(d):
        for j in range(i, d):
            ei = np.zeros(d)
            ej = np.zeros(d)
            ei[i] = steps[i]
            ej[j] = steps[j]
            if i == j:
                val = (fun(x0 + ei) - 2.0 * f0 + fun(x0 - ei)) / steps[i] ** 2
            else:
                val = (
                    fun(x0 + ei + ej) - fun(x0 + ei - ej)
                    - fun(x0 - ei + ej) + fun(x0 - ei - ej)
                ) / (4.0 * steps[i] * steps[j])
            H[i, j] = H[j, i] = val
    return H


def _log_posterior_vec(cfg: ModelConfig, data: Dataset, vec: np.ndarray,
                       chunk: int = 1024) -> np.ndarray:
    vec = np.atleast_2d(vec)
    k = cfg.c - 2
    out = np.empty(vec.shape[0])
    for start in range(0, vec.shape[0], chunk):
        block = vec[start : start + chunk]
        out[start : start + chunk] = log_posterior_batch(
            cfg, block[:, :k], block[:, k:], data
        )
    return out


def build_reference_sir(cfg: ModelConfig, data: Dataset, size: int,
                        rng: RngStream, pool: int = 8192,
                        inflate: float = 1.6, info: dict | None = None) -> np.ndarray:
    """Posterior bank by sampling-importance-resampling from a Laplace proposal.

    The proposal is a normal at the posterior mode with inflated inverse
    Hessian covariance; importance weights correct it exactly up to
    effective-sample-size loss, and the bank is drawn without replacement by
    Gumbel-top-k on the log weights, so it carries no duplicate states. When
    the effective sample size falls under 5% of the pool the proposal is
    widened and the pool redrawn (up to three rounds).
    """
    mode = _posterior_mode(cfg, data)
    x0 = mode.as_vector()
    H = _hessian_fd(lambda v: -_log_posterior_vec(cfg, data, v[None, :])[0], x0)
    try:
        cov = np.linalg.inv(0.5 * (H + H.T))
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        fi = fisher_information(cfg, mode)
        cov = np.linalg.inv(fi.matrix) / data.n
    d = x0.size

    best = None
    scale = inflate
    for attempt in range(3):
        prop_cov = scale ** 2 * cov
        gen = rng.child("pool", attempt).generator
        draws = gen.multivariate_normal(x0, prop_cov, size=pool,
                                        method="cholesky")
        logq = stats.multivariate_normal(mean=x0, cov=prop_cov,
                                         allow_singular=False).logpdf(draws)
        logp = _log_posterior_vec(cfg, data, draws)
        logw = logp - logq
        logw[~np.isfinite(logw)] = -np.inf
        shifted = logw - logw.max()
        w = np.exp(shifted)
        ess = float(w.sum() ** 2 / np.sum(w * w))
        if best is None or ess > best[0]:
            best = (ess, draws, logw, scale)
        if ess >= 0.05 * pool:
            break
        scale *= 1.5
    ess, draws, logw, scale = best
    if ess < size:
        raise NumericalFailure(
            f"importance sampler too weak: ess={ess:.1f} < bank size {size}"
        )
    gumbel = rng.child("topk").generator.gumbel(size=pool)
    keys = logw + gumbel
    idx = np.argpartition(-keys, size - 1)[:size]
    if info is not None:
        info.update({"ess": ess, "pool": pool, "inflate": scale,
                     "mode": x0.tolist()})
    return draws[idx]


def sir_reference(cfg: ModelConfig, data: Dataset, size: int, seed: int,
                  pool: int = 8192) -> ReferencePosterior:
    """Package a SIR bank as a ReferencePosterior with the BvM surrogate."""
    meta: dict = {}
    bank = build_reference_sir(cfg, data, size, RngStream(seed, "sir"),
                               pool=pool, info=meta)
    theta_hat = central_value(bank)
    fi = fisher_information(cfg, Theta.from_vector(theta_hat, cfg.c, cfg.p))
    return ReferencePosterior(
        sample=bank,
        theta_hat=theta_hat,
        bvm_mean=theta_hat,
        bvm_cov=np.linalg.inv(fi.matrix) / data.n,
        n=data.n,
        provenance={"method": "sir", "seed": seed} | meta,
    )


def km_matrix_effective(variant: VariantId | str, g: float, J0: float, K: float,
                        L: float, Sigma: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """K_M with the slope block carrying J0 = E (phi'/phi)^2 instead of K.

    Differentiating the complete-data log density in beta gives a score
    -g w x with w standard under the model, whose second moment is
    g^2 J0 Sigma; the quoted form puts K there instead, which for the probit
    link overstates the block by a factor of two. The g-block K / g^2 and
    the L-coupling agree between the two. The slope-only (unaugmented) beta
    kernel fits the same scheme with g = 1 and no g row.
    """
    if isinstance(variant, str):
        variant = VariantId.parse(variant)
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if variant.parameterization == "null":
        if not variant.augmented:
            raise ValueError("the unaugmented null kernel has no normal-score block")
        return np.array([[K / g ** 2]])
    if not variant.augmented:
        return J0 * Sigma
    p = Sigma.shape[0]
    out = np.empty((p + 1, p + 1))
    out[:p, :p] = g ** 2 * J0 * Sigma
    out[:p, p] = L * mu
    out[p, :p] = L * mu
    out[p, p] = K / g ** 2
    return out


def fisher_blocks(variant: VariantId | str, cfg: ModelConfig, theta: Theta,
                  data: Dataset | None = None):
    """Assemble I and K_M for a beta-type kernel's moving block.

    For the unaugmented beta kernels the moving block is the slope vector
    (at c = 2 that is all of theta); the observed information comes from
    fisher_information and K_M from the effective closed form, using the
    dataset's empirical covariate moments when data is given (these are the
    moments the kernel actually sees) and the population moments otherwise.
    Returns (I, m_mask, K_M, findings): the full information matrix, the
    boolean mask of the moving block, K_M, and a list of notes on sources.
    """
    if isinstance(variant, str):
        variant = VariantId.parse(variant)
    if variant.parameterization != "beta" or variant.augmented:
        raise ValueError("fisher_blocks covers the unaugmented beta kernels")
    fi = fisher_information(cfg, theta)
    dim = cfg.dim
    m_mask = np.zeros(dim, dtype=bool)
    m_mask[cfg.c - 2 :] = True
    if data is not None:
        Sigma = data.x.T @ data.x / data.n
        mu = data.x.mean(axis=0)
        source = "empirical"
    else:
        mu, Sigma = cfg.covariates.moments()
        source = "population"
    K, L = scale_constants()
    K_M = km_matrix_effective(variant, 1.0, score_second_moment(), K, L,
                              Sigma, mu)
    findings = [f"K_M slope block uses J0-form with {source} moments"]
    return fi.matrix, m_mask, K_M, findings


def kernel_normal_approx(variant: VariantId | str, cfg: ModelConfig,
                         data: Dataset, reference: ReferencePosterior,
                         theta: Theta):
    """Normal approximation to one step of a beta-type kernel's moving block.

    Mean theta_hat_M + K_M^{-1} J_M (theta_M - theta_hat_M)
              + K_M^{-1} I_{ M,F } (theta_F - theta_hat_F),
    covariance n^{-1} K_M^{-1} + n^{-1} K_M^{-1} J_M K_M^{-1}, with
    J_M = K_M - I_M and hat quantities at the reference central value:
    closed-form K_M, integrated information I. Returns (mean, cov,
    findings); the findings record the mixed sources and, if the
    information inequality fails, J_M's negative eigenvalue.
    """
    if isinstance(variant, str):
        variant = VariantId.parse(variant)
    that = Theta.from_vector(reference.theta_hat, cfg.c, cfg.p)
    I, m, K_M, findings = fisher_blocks(variant, cfg, that, data=data)
    try:
        K_inv = np.linalg.inv(K_M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular K_M: {K_M}") from exc
    J_M = K_M - I[np.ix_(m, m)]
    eigs = np.linalg.eigvalsh(J_M)
    if eigs.min() < -1e-6:
        findings.append(f"J_M not PSD: min eigenvalue {eigs.min():.3e}")

    vec = theta.as_vector()
    hat = reference.theta_hat
    mean = hat[m] + K_inv @ J_M @ (vec[m] - hat[m])
    if (~m).any():
        mean = mean + K_inv @ I[np.ix_(m, ~m)] @ (vec[~m] - hat[~m])
    n = data.n
    cov = K_inv / n + K_inv @ J_M @ K_inv / n
    cov = 0.5 * (cov + cov.T)
    return mean, cov, findings
