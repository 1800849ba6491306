"""Distances between chain output and posterior, and degeneracy statistics.

The ground metric everywhere is d(u, v) = min(|u - v|_2, 1), optionally
rescaled by sqrt(n) ("localized"): because the rescaling is applied to both
arguments, the centering point cancels and localization reduces to a scale
factor on the metric.

Three estimators live here:

* ``estimate_Rprime``: average distance between a chain's start and its next
  m states, which equals the bounded-Lipschitz distance between the start's
  point mass and the m-step empirical measure.
* ``estimate_R``: bounded-Lipschitz distance between the chain's m-step
  empirical measure and m reference rows. As d <= 1 it is W1 under d
  (Kantorovich-Rubinstein), an exact assignment for two uniform clouds of
  equal size.
* ``one_step_statistic``: mean localized one-step motion of a transform of
  the state along a stationarity-started chain; its decay in n is what
  separates degenerate from locally consistent kernels.

Each steps its chains through ``kernels.run_chain`` and evaluates the
transform once on the recorded states. Each first runs ``check_settings``,
which ``harness.make_plan`` also runs on every cell of a plan.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from . import asymptotics
from .kernels import VariantId, check_variant, initial_state, run_chain, transform_dim
from .model import ModelConfig, Theta, sample_dataset
from .sampling import RngStream


def table1_transform(variant: VariantId | str, c: int) -> str:
    """The transform whose one-step motion witnesses each classification cell.

    Unaugmented kernels are judged on the raw parameter, except the beta
    parameterization at c >= 3 where only the cut-point block freezes.
    Augmented kernels are judged on the identified parameter when it can
    move as a whole (c = 2 for the null side, c <= 3 for the beta side);
    what remains frozen beyond that is the raw parameter for the null side
    and the scale-free cut-point ratios for the beta side.
    """
    variant = VariantId.parse(variant)
    if variant.parameterization == "null":
        if not variant.augmented:
            return "theta"
        return "g-theta" if c == 2 else "theta"
    if not variant.augmented:
        return "theta" if c == 2 else "alpha"
    return "g-theta" if c <= 3 else "alpha-ratio"


def ground_metric(u, v, scale: float = 1.0) -> np.ndarray:
    """d(u, v) = min(scale * |u - v|_2, 1), broadcasting over rows."""
    diff = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
    if diff.ndim == 1:
        return min(scale * float(np.linalg.norm(diff)), 1.0)
    return np.minimum(scale * np.linalg.norm(diff, axis=-1), 1.0)


class BLValue(float):
    """The distance as a float, carrying how it was computed: the pooled
    support (both clouds, duplicates counted) and the solver. Nothing is
    ever resampled."""

    support: int
    solver: str
    resampled = False

    def __new__(cls, value, support, solver):
        obj = super().__new__(cls, value)
        obj.support = support
        obj.solver = solver
        return obj


def bl_distance(u, v, *, scale: float = 1.0) -> BLValue:
    """Bounded-Lipschitz distance between two uniform point clouds of equal
    size (rows are points).

    The ground metric d = min(scale * |.|, 1) is at most 1, so a d-Lipschitz
    potential shifts into [-1, 1]: the bound |f| <= 1 is slack and the
    distance is W1 under d (Kantorovich-Rubinstein). For two uniform clouds
    of equal size W1 is an assignment problem (Birkhoff-von Neumann), solved
    exactly by ``linear_sum_assignment`` on the k x k matrix of d.
    """
    from scipy import optimize, spatial

    u = np.atleast_2d(np.asarray(u, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if u.shape[1] != v.shape[1]:
        raise ValueError("dimension mismatch")
    if u.shape[0] != v.shape[0] or not u.size:
        raise ValueError(f"need two nonempty clouds of equal size, got "
                         f"{u.shape[0]} and {v.shape[0]} points")
    cost = np.minimum(scale * spatial.distance.cdist(u, v), 1.0)
    rows, cols = optimize.linear_sum_assignment(cost)
    return BLValue(float(cost[rows, cols].mean()), 2 * u.shape[0],
                   "assignment")


def central_value(points) -> np.ndarray:
    """Per-coordinate root of k^{-1} sum_i arctan(x_i - t) = 0 over the rows
    x_i of ``points``.

    The map is strictly decreasing in t, so the root is unique and lies in
    [min x, max x]; bisection runs until the residual drops below 1e-10.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.full(points.shape[0], 1.0 / points.shape[0])
    out = np.empty(points.shape[1])
    for d in range(points.shape[1]):
        x = points[:, d]
        lo, hi = float(x.min()), float(x.max())
        if hi - lo == 0.0:
            out[d] = lo
            continue

        def resid(t):
            return float(np.sum(w * np.arctan(x - t)))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            r = resid(mid)
            if abs(r) < 1e-10:
                break
            if r > 0:
                lo = mid
            else:
                hi = mid
        out[d] = mid
    return out


def wprime_from_series(series: np.ndarray, scale: float = 1.0) -> float:
    """m^{-1} sum_i d(theta(0), theta(i)) for a single chain's state rows.

    This is the distance between the start's point mass and the m-step
    empirical measure: integrating the ground metric against an empirical
    measure attains the bounded-Lipschitz supremum against a point mass.
    """
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[0] < 2:
        raise ValueError("need the start plus at least one step")
    return float(np.mean(ground_metric(series[1:], series[0], scale)))


@dataclasses.dataclass
class DiagnosticsReport:
    """Estimates with Monte Carlo standard errors for one experiment cell."""

    variant: str
    n: int
    m: int
    replications: int
    estimates: dict
    metadata: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        _check_replications(self.replications)
        for key, entry in self.estimates.items():
            if "value" not in entry or "se" not in entry:
                raise ValueError(f"estimate {key!r} lacks value/se")

    def value(self, key: str) -> float:
        return float(self.estimates[key]["value"])

    def se(self, key: str) -> float:
        return float(self.estimates[key]["se"])

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, default=_jsonable)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @staticmethod
    def load(path) -> "DiagnosticsReport":
        raw = json.loads(Path(path).read_text())
        return DiagnosticsReport(**raw)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _mean_se(values) -> dict:
    values = np.asarray(values, dtype=float)
    r = values.size
    return {
        "value": float(values.mean()),
        "se": float(values.std(ddof=1) / math.sqrt(r)) if r > 1 else float("nan"),
    }


def _cluster_se(values, clusters) -> dict:
    """Mean with a cluster-robust s.e. when replications share a dataset."""
    values = np.asarray(values, dtype=float)
    clusters = np.asarray(clusters)
    mean = float(values.mean())
    labels = np.unique(clusters)
    if labels.size < 2:
        return _mean_se(values)
    resid_sums = np.array(
        [np.sum(values[clusters == lab] - mean) for lab in labels]
    )
    d = labels.size
    var = d / (d - 1) * np.sum(resid_sums ** 2) / values.size ** 2
    return {"value": mean, "se": float(math.sqrt(var))}


def _check_replications(R: int) -> None:
    if R < 2:
        raise ValueError("need at least two replications for an s.e.")


def check_settings(variant: VariantId | str, cfg: ModelConfig, transform: str,
                   R: int, *, m: int | None = None, coords=None,
                   reference_size: int | None = None,
                   bank_size: int | None = None,
                   pool: int | None = None) -> VariantId:
    """Refuse estimator settings no run could use; returns the variant. The
    kernel and transform must be defined at (c, p), ``coords`` within the
    transform, R >= 2, m >= 2, ``reference_size`` >= m, and each SIR bank
    smaller than its pool (``_check_pool``)."""
    variant = VariantId.parse(variant)
    check_variant(variant, cfg.c)
    dim = transform_dim(transform, cfg.c, cfg.p)
    if coords is not None and not all(-dim <= k < dim for k in coords):
        raise ValueError(f"coords {[int(k) for k in coords]} out of range "
                         f"for the {dim}-dimensional {transform!r} transform")
    _check_replications(R)
    if m is not None and m < 2:
        raise ValueError("need m >= 2")
    if reference_size is not None and reference_size < m:
        raise ValueError(f"reference_size={reference_size} < m={m}: need m "
                         "distinct reference rows")
    _check_pool("bank_size", bank_size, pool)
    _check_pool("reference_size", reference_size, None)
    return variant


def _check_pool(name: str, size: int | None, pool: int | None) -> None:
    """Refuse a SIR bank of ``size`` rows no smaller than its pool (None:
    the fixed ``asymptotics.SIR_POOL``): the bank needs a Kish effective
    sample size of ``size``, which reaches the pool only if every importance
    weight is equal."""
    limit = asymptotics.SIR_POOL if pool is None else pool
    if size is not None and size >= limit:
        where = (f"pool={pool}" if pool is not None
                 else f"{limit}, the fixed SIR pool of R and R' banks")
        raise ValueError(f"{name}={size} >= {where}: a SIR bank needs a "
                         "larger pool")


def estimate_Rprime(variant: VariantId | str, cfg: ModelConfig, n: int, m: int,
                    R: int, master_seed: int, *, theta0: Theta,
                    start: str = "reference-posterior",
                    theta_start: Theta | None = None,
                    transform: str = "theta",
                    bank_size: int = 512) -> DiagnosticsReport:
    """Average distance between a chain's start and its next m states.

    Each replication generates a fresh dataset, starts one chain (from an
    approximate posterior draw by default, or from a fixed point), advances
    it m steps, and evaluates m^{-1} sum_i d(F(s(0)), F(s(i))) on both the
    unlocalized and the sqrt(n)-localized scale.
    """
    variant = check_settings(
        variant, cfg, transform, R, m=m,
        bank_size=bank_size if start == "reference-posterior" else None)
    if start not in ("fixed", "reference-posterior"):
        raise ValueError(f"unknown start policy {start!r}; expected 'fixed' "
                         "or 'reference-posterior'")
    root = RngStream(master_seed, "rprime", variant.name, n, m)
    raw, loc = [], []
    for r in range(R):
        rep = root.child("rep", r)
        data = sample_dataset(cfg, theta0, n, seed=rep.child("data").seed_int())
        bank = None
        if start == "reference-posterior":
            bank = asymptotics.build_reference_sir(cfg, data, bank_size,
                                                   rep.child("bank"))
        state = initial_state(cfg, variant, 1, rep, init=start,
                              theta=theta_start or theta0, reference=bank)
        series = run_chain(cfg, data, variant, m, rep.child("chain"),
                           state=state).transform(transform)[:, 0]
        raw.append(wprime_from_series(series, 1.0))
        loc.append(wprime_from_series(series, math.sqrt(n)))
    return DiagnosticsReport(
        variant=variant.name, n=n, m=m, replications=R,
        estimates={"Rprime": _mean_se(raw), "Rprime_localized": _mean_se(loc)},
        metadata={"start": start, "transform": transform,
                  "master_seed": master_seed},
    )


def estimate_R(variant: VariantId | str, cfg: ModelConfig, n: int, m: int,
               R: int, reference_size: int, master_seed: int, *,
               theta0: Theta,
               transform: str = "theta") -> DiagnosticsReport:
    """Distance between the chain's m-step empirical measure and the posterior.

    Per replication: fresh dataset, a reference posterior sample, one chain
    of m steps started at ``theta0``; the bounded-Lipschitz distance is
    taken between the chain's empirical measure (states 1..m) and m
    distinct reference rows (an exact assignment, solver and support in the
    metadata), on the sqrt(n)-localized scale (and unlocalized, for
    orientation). The central value of the reference sample per replication
    is recorded as localization metadata.
    """
    variant = check_settings(variant, cfg, transform, R, m=m,
                             reference_size=reference_size)
    root = RngStream(master_seed, "risk", variant.name, n, m)
    raw, loc, centers, how = [], [], [], {}
    for r in range(R):
        rep = root.child("rep", r)
        data = sample_dataset(cfg, theta0, n, seed=rep.child("data").seed_int())
        bank = asymptotics.build_reference_sir(cfg, data, reference_size,
                                               rep.child("bank"))
        series = run_chain(cfg, data, variant, m, rep.child("chain"),
                           theta=theta0).transform(transform)[1:, 0]
        pick = rep.child("ref-pick").generator
        ref_pts = bank[pick.permutation(bank.shape[0])[:m]]
        raw.append(bl_distance(series, ref_pts, scale=1.0))
        loc.append(bl_distance(series, ref_pts, scale=math.sqrt(n)))
        how = {"bl_solver": loc[-1].solver, "bl_support": loc[-1].support}
        centers.append(central_value(ref_pts))
    return DiagnosticsReport(
        variant=variant.name, n=n, m=m, replications=R,
        estimates={"R": _mean_se(raw), "R_localized": _mean_se(loc)},
        metadata={"init": "fixed", "transform": transform,
                  "master_seed": master_seed,
                  "theta_hat": np.asarray(centers),
                  "reference_size": reference_size, **how},
    )


def one_step_statistic(variant: VariantId | str, cfg: ModelConfig, n: int,
                       R: int, transform: str, master_seed: int, *,
                       theta0: Theta, datasets: int | None = None,
                       inner: int = 12, starts: int = 1, coords=None,
                       bank_size: int = 1024,
                       pool: int = 8192) -> DiagnosticsReport:
    """Mean localized one-step motion of a transform at stationarity.

    R replications are spread over several fresh datasets; each replication
    runs ``starts`` chains from independent approximate posterior draws for
    ``inner`` + 1 steps and contributes the mean of min(sqrt(n) |F(s(t+1)) -
    F(s(t))|, 1) over its chains and consecutive pairs (every pair of a
    stationary chain is a stationary pair, and averaging within a
    replication only reduces variance). For augmented variants the starting
    scales within a replication are stratified over the prior scale law
    (one uniform per stratum), which is unbiased for the same expectation
    and removes most of the scale-mixture variance. ``coords`` restricts
    the transform to selected output coordinates. The s.e. is
    cluster-robust over datasets.
    """
    if coords is not None:
        coords = list(np.atleast_1d(coords))
    variant = check_settings(variant, cfg, transform, R, coords=coords,
                             bank_size=bank_size, pool=pool)
    if datasets is None:
        datasets = max(2, min(8, math.ceil(R / 16)))
    per = math.ceil(R / datasets)
    root = RngStream(master_seed, "one-step", variant.name, n, transform)
    values, labels = [], []
    unit = 0
    for d in range(datasets):
        if unit >= R:
            break
        rep = root.child("data", d)
        data = sample_dataset(cfg, theta0, n, seed=rep.child("gen").seed_int())
        bank = asymptotics.build_reference_sir(cfg, data, bank_size, rep.child("bank"),
                                               pool=pool)
        b = min(per, R - unit)
        quantiles = None
        if variant.augmented and starts > 1:
            u = rep.child("g-strata").generator.random((b, starts))
            quantiles = ((np.arange(starts)[None, :] + u) / starts).reshape(-1)
        state = initial_state(cfg, variant, b * starts, rep,
                              init="reference-posterior", reference=bank,
                              g_quantiles=quantiles)
        f = run_chain(cfg, data, variant, inner, rep.child("chain"),
                      state=state).transform(transform)
        if coords is not None:
            f = f[..., coords]
        motions = ground_metric(f[1:], f[:-1], math.sqrt(n))
        values.extend(motions.reshape(inner, b, starts).mean(axis=(0, 2)))
        labels.extend([d] * b)
        unit += b
    return DiagnosticsReport(
        variant=variant.name, n=n, m=inner, replications=len(values),
        estimates={"D": _cluster_se(values, labels)},
        metadata={"transform": transform, "coords": coords,
                  "datasets": datasets, "starts": starts, "bank_size": bank_size, "pool": pool,
                  "master_seed": master_seed},
    )


def classify_table1(results: dict) -> dict:
    """Label kernels from one-step statistics on the n-grid {100, 400, 1600}.

    ``results`` maps cell keys to {n: DiagnosticsReport}. X (degenerate)
    needs D strictly decreasing over the grid and D_1600 below half of
    D_100 by more than three pooled standard errors; O (moving) needs
    D_400 and D_1600 to stay within [2/3, 3/2] of D_100. Everything else
    is inconclusive. Raw numbers ride along so the thresholds stay
    auditable.
    """
    grid = (100, 400, 1600)
    out = {}
    for cell, by_n in results.items():
        missing = [n for n in grid if n not in by_n]
        if missing:
            raise ValueError(f"cell {cell}: missing n = {missing}")
        d = {n: by_n[n].value("D") for n in grid}
        se = {n: by_n[n].se("D") for n in grid}
        decreasing = d[100] > d[400] > d[1600]
        margin = d[100] / 2.0 - d[1600]
        pooled = math.sqrt((se[100] / 2.0) ** 2 + se[1600] ** 2)
        if decreasing and margin > 3.0 * pooled:
            label = "X"
        elif all(2.0 / 3.0 <= d[n] / d[100] <= 1.5 for n in (400, 1600)):
            label = "O"
        else:
            label = "inconclusive"
        out[cell] = {
            "label": label,
            "D": d,
            "se": se,
            "ratio": d[1600] / d[100] if d[100] > 0 else float("inf"),
        }
    return out

