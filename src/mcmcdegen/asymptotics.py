"""Reference posteriors, information matrices, and kernel approximations.

The "true posterior" that risks are measured against is an empirical sample:
either a long thinned run of the latent-shift (beta) kernel
(``build_reference``), or importance resampling from an inflated Laplace
proposal (``build_reference_sir``) when many independent references are
needed cheaply. A normal surrogate N(theta_hat, I^{-1}/n) rides along as a
cross-check, not as the target.

The information side gives the one-step normal approximation of the
unaugmented beta kernels (``kernel_normal_approx``): K_M is the slope
block's complete-data information J0 Sigma on the dataset's own covariate
moments (``fisher_blocks``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import metrics
from .kernels import VariantId, run_chain
from .model import (
    Dataset,
    ModelConfig,
    NumericalFailure,
    Theta,
    fisher_information,
    log_posterior_batch,
    score_second_moment,
)
from .sampling import RngStream

SIR_POOL = 8192          # default SIR pool, and the pool of every R and Rprime bank
_INFLATE = 1.6           # first scale of the SIR proposal on the Laplace covariance
_HESSIAN_STEP = 1e-4     # relative finite-difference step of _hessian_fd


@dataclasses.dataclass
class ReferencePosterior:
    """Empirical reference sample of the identified parameter, with the
    BvM surrogate N(theta_hat, bvm_cov) at its central value."""

    sample: np.ndarray
    theta_hat: np.ndarray
    bvm_cov: np.ndarray
    n: int
    provenance: dict
    warnings: list = dataclasses.field(default_factory=list)

    def __post_init__(self):
        self.sample = np.atleast_2d(np.asarray(self.sample, dtype=float))
        self.theta_hat = np.asarray(self.theta_hat, dtype=float)
        self.bvm_cov = np.atleast_2d(np.asarray(self.bvm_cov, dtype=float))

    @property
    def bvm_mean(self) -> np.ndarray:
        return self.theta_hat

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
            bvm_cov=np.asarray(meta["bvm_cov"]),
            n=int(meta["n"]),
            provenance=meta["provenance"],
            warnings=list(meta.get("warnings", [])),
        )


def _split_half_ks(sample: np.ndarray) -> float:
    """Smallest per-coordinate KS p-value between the run's two halves."""
    from scipy import stats

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

    The latent-shift (beta) parameterization shares its stationary law with
    the other kernels, so its long run serves as the reference for all of
    them. It does not mix best: the classification table labels it
    degenerate (X) at c = 3 and 4, so the run is long, starts at the
    posterior mode, and a split-half KS check guards against
    non-convergence: on failure the run length is doubled once and a warning
    is recorded either way.
    """
    if thin < 1 or burn < 0 or length < 2 * thin:  # the check needs two rows
        raise ValueError(f"need thin >= 1, burn >= 0 and length >= 2 thin; got "
                         f"length={length}, burn={burn}, thin={thin}")
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

    return _with_bvm(cfg, data, sample, warnings=warnings, provenance={
        "method": "chain", "variant": variant.name, "length": cur_length,
        "burn": burn, "thin": thin, "seed": seed, "split_half_ks_p": pmin})


def _with_bvm(cfg: ModelConfig, data: Dataset, sample: np.ndarray,
              provenance: dict, warnings: list) -> ReferencePosterior:
    """Package a sample with its BvM surrogate: the central value, and the
    inverse Fisher information there over n (its method in provenance)."""
    theta_hat = metrics.central_value(sample)
    info = fisher_information(cfg, Theta.from_vector(theta_hat, cfg.c, cfg.p))
    provenance["fisher"] = info.detail | {"method": info.method}
    return ReferencePosterior(
        sample=sample, theta_hat=theta_hat,
        bvm_cov=np.linalg.inv(info.matrix) / data.n, n=data.n,
        provenance=provenance, warnings=warnings)


def _free_to_cone(vec: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One row's cut-points cumsum(exp(v)) of the first k free coordinates,
    and its slopes, as (1, k) and (1, p) blocks."""
    return np.cumsum(np.exp(vec[None, :k]), axis=1), vec[None, k:]


def _posterior_mode(cfg: ModelConfig, data: Dataset) -> Theta:
    """Posterior mode via a smooth reparameterization of the ordering cone;
    each Nelder-Mead evaluation scores one row of ``log_posterior_batch``."""
    from scipy import optimize

    k = cfg.c - 2

    def neg(v):
        val = log_posterior_batch(cfg, *_free_to_cone(v, k), data)[0]
        return -val if math.isfinite(val) else 1e12

    v0 = np.concatenate([np.full(k, math.log(0.5)), np.zeros(cfg.p)])
    res = optimize.minimize(neg, v0, method="Nelder-Mead",
                            options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-8})
    if not np.all(np.isfinite(res.x)):
        raise NumericalFailure("posterior mode search failed")
    alpha, beta = _free_to_cone(res.x, k)
    return Theta(alpha=alpha[0], beta=beta[0])


def _hessian_fd(fun, x0: np.ndarray) -> np.ndarray:
    d = x0.size
    H = np.empty((d, d))
    E = np.diag(_HESSIAN_STEP * (1.0 + np.abs(x0)))  # row i: the step along coordinate i
    f0 = fun(x0)
    for i in range(d):
        for j in range(i, d):
            ei, ej = E[i], E[j]
            if i == j:
                val = (fun(x0 + ei) - 2.0 * f0 + fun(x0 - ei)) / E[i, i] ** 2
            else:
                val = (fun(x0 + ei + ej) - fun(x0 + ei - ej) - fun(x0 - ei + ej)
                       + fun(x0 - ei - ej)) / (4.0 * E[i, i] * E[j, j])
            H[i, j] = H[j, i] = val
    return H


def build_reference_sir(cfg: ModelConfig, data: Dataset, size: int,
                        rng: RngStream, pool: int = SIR_POOL,
                        info: dict | None = None) -> np.ndarray:
    """Posterior bank by sampling-importance-resampling from a Laplace proposal.

    The proposal is a normal at the posterior mode with inflated inverse
    Hessian covariance; importance weights correct it exactly up to
    effective-sample-size loss, and the bank is drawn without replacement by
    Gumbel-top-k on the log weights, so it carries no duplicate states. When
    the effective sample size falls under 5% of the pool the proposal is
    widened and the pool redrawn (up to three rounds). The mode search, the
    Hessian (one row a call) and each pool score ``log_posterior_batch``.
    """
    from scipy import stats

    mode = _posterior_mode(cfg, data)
    x0 = mode.as_vector()
    k = cfg.c - 2
    H = _hessian_fd(
        lambda v: -log_posterior_batch(cfg, v[None, :k], v[None, k:], data)[0], x0)
    try:
        cov = np.linalg.inv(0.5 * (H + H.T))
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        fi = fisher_information(cfg, mode)
        cov = np.linalg.inv(fi.matrix) / data.n
    d = x0.size

    best = None
    scale = _INFLATE
    for attempt in range(3):
        prop_cov = scale ** 2 * cov
        gen = rng.child("pool", attempt).generator
        draws = gen.multivariate_normal(x0, prop_cov, size=pool,
                                        method="cholesky")
        logq = stats.multivariate_normal(mean=x0, cov=prop_cov,
                                         allow_singular=False).logpdf(draws)
        logp = log_posterior_batch(cfg, draws[:, :k], draws[:, k:], data)
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
                  pool: int = SIR_POOL) -> ReferencePosterior:
    """Package a SIR bank as a ReferencePosterior with the BvM surrogate."""
    meta: dict = {}
    bank = build_reference_sir(cfg, data, size, RngStream(seed, "sir"),
                               pool=pool, info=meta)
    return _with_bvm(cfg, data, bank, {"method": "sir", "seed": seed} | meta, [])


def fisher_blocks(variant: VariantId | str, cfg: ModelConfig, theta: Theta,
                  data: Dataset):
    """Assemble I and K_M for an unaugmented beta kernel's moving block, the
    slopes (all of theta at c = 2). I is fisher_information; K_M = J0 Sigma
    is the second moment of the complete-data slope score -w x (w standard),
    with Sigma = E[x x'] on the dataset, the moments the kernel sees (the
    quoted closed form's K = 2 J0 doubles it). Returns (I, m_mask, K_M,
    findings): I in full, the moving block's mask, K_M and source notes.
    """
    variant = VariantId.parse(variant)
    if variant.parameterization != "beta" or variant.augmented:
        raise ValueError("fisher_blocks covers the unaugmented beta kernels")
    fi = fisher_information(cfg, theta)
    m_mask = np.zeros(cfg.dim, dtype=bool)
    m_mask[cfg.c - 2 :] = True
    K_M = score_second_moment() * (data.x.T @ data.x / data.n)
    findings = ["K_M slope block uses J0-form with empirical moments"]
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
