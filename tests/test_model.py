"""Model layer: probabilities, scores, information, datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, roots_legendre
from scipy.stats import norm

from mcmcdegen import model
from mcmcdegen.kernels import _prepared
from mcmcdegen.model import (
    CovariateSpec,
    Dataset,
    ModelConfig,
    Theta,
    _cell_gradients,
    _phi,
    cell_probabilities,
    cumulative_probs,
    fisher_information,
    load_dataset,
    log_likelihood_batch,
    log_posterior_batch,
    prior_theta_draws,
    sample_dataset,
    save_dataset,
    scale_constants,
    score_second_moment,
)
from mcmcdegen.sampling import RngStream


def cell_probability(cfg, theta, x, j):
    """P(y = j | x) for a single covariate row."""
    return float(cell_probabilities(cfg, theta, np.atleast_2d(x))[0, j - 1])


def normalized_score(cfg, theta, data):
    """Z_n = n^{-1/2} sum_i grad_theta log p(y_i | x_i, theta), summing the
    cell gradients G / P over the observed cells."""
    G, P = _cell_gradients(cfg, theta, data.x)
    rows = np.arange(data.n)
    chosen = P[rows, data.y - 1]
    assert np.all(chosen > 1e-300)
    total = np.sum(G[rows, data.y - 1] / chosen[:, None], axis=0)
    return total / np.sqrt(data.n)


class TestLinkConstants:
    def test_probit_scale_constants(self):
        K, L = scale_constants()
        assert abs(K - 2.0) < 1e-8
        assert abs(L) < 1e-8

    def test_probit_score_second_moment(self):
        assert abs(score_second_moment() - 1.0) < 1e-8


class TestTheta:
    def test_vector_roundtrip(self):
        th = Theta(alpha=(0.5, 1.25), beta=(-1.0, 0.3))
        vec = th.as_vector()
        back = Theta.from_vector(vec, c=4, p=2)
        assert np.array_equal(back.alpha, th.alpha)
        assert np.array_equal(back.beta, th.beta)
        assert th.c == 4 and th.p == 2 and th.dim == 4

    def test_cone_violations_raise(self):
        with pytest.raises(ValueError):
            Theta(alpha=(-0.1,), beta=(1.0,))
        with pytest.raises(ValueError):
            Theta(alpha=(1.0, 0.5), beta=(1.0,))


class TestProbabilities:
    @settings(max_examples=40, deadline=None)
    @given(a2=st.floats(0.05, 2), gap=st.floats(0.05, 2),
           b=st.floats(-2, 2), x=st.floats(0, 1))
    def test_cells_sum_to_one(self, a2, gap, b, x):
        cfg = ModelConfig(c=4)
        th = Theta(alpha=(a2, a2 + gap), beta=(b,))
        probs = cell_probabilities(cfg, th, np.array([[x]]))
        assert probs.shape == (1, 4)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_cumulative_monotone(self):
        cfg = ModelConfig(c=5)
        th = Theta(alpha=(0.3, 0.9, 1.1), beta=(0.7,))
        cum = cumulative_probs(cfg, th, np.array([[0.2], [0.9]]))
        assert np.all(np.diff(cum, axis=1) >= 0)
        assert np.allclose(cum[:, 0], 0.0) and np.allclose(cum[:, -1], 1.0)

    def test_binary_matches_probit(self):
        cfg = ModelConfig(c=2)
        th = Theta(alpha=(), beta=(1.5,))
        x = np.array([[0.4]])
        # outcome 1 is "z below the zero cut"
        assert cell_probability(cfg, th, x, 1) == pytest.approx(
            norm.cdf(1.5 * 0.4), abs=1e-12)


class TestScore:
    def test_normalized_score_matches_finite_difference(self):
        cfg = ModelConfig(c=3)
        th = Theta(alpha=(0.8,), beta=(-0.5,))
        data = sample_dataset(cfg, th, 200, seed=11)

        def loglik(vec):
            t = Theta.from_vector(vec, cfg.c, cfg.p)
            return float(log_likelihood_batch(cfg, np.array([t.alpha]),
                                              np.array([t.beta]), data)[0])

        z = normalized_score(cfg, th, data)
        vec = th.as_vector()
        h = 1e-6
        for j in range(vec.size):
            e = np.zeros_like(vec)
            e[j] = h
            fd = (loglik(vec + e) - loglik(vec - e)) / (2 * h)
            assert z[j] * np.sqrt(data.n) == pytest.approx(fd, rel=1e-4,
                                                           abs=1e-4)


class TestFisherInformation:
    def test_binary_quadrature_oracle(self):
        cfg = ModelConfig(c=2)
        th = Theta(alpha=(), beta=(2.0,))
        fi = fisher_information(cfg, th)

        def integrand(x):
            eta = 2.0 * x
            f = norm.pdf(eta)
            F = norm.cdf(eta)
            return x * x * f * f / (F * (1 - F))

        oracle, _ = quad(integrand, 0, 1, epsabs=1e-12)
        assert fi.matrix.shape == (1, 1)
        assert fi.matrix[0, 0] == pytest.approx(oracle, rel=1e-6)

    def test_positive_definite_ordinal(self):
        cfg = ModelConfig(c=4)
        th = Theta(alpha=(0.7, 1.4), beta=(-1.0,))
        fi = fisher_information(cfg, th)
        eig = np.linalg.eigvalsh(fi.matrix)
        assert np.all(eig > 0)
        assert np.allclose(fi.matrix, fi.matrix.T)


def _oracle_information_terms(cfg, theta, xs):
    """Per-row information sum_j grad p_j grad p_j' / p_j, one cell at a time."""
    cuts = np.concatenate([[-np.inf, 0.0], theta.alpha, [np.inf]])
    out = np.zeros((len(xs), cfg.dim, cfg.dim))
    for r, x in enumerate(xs):
        bx = float(x @ theta.beta)
        dens = [float(_phi(cut + bx)) if np.isfinite(cut) else 0.0
                for cut in cuts]
        for j in range(1, cfg.c + 1):
            prob = cell_probability(cfg, theta, x, j)
            if prob <= 1e-300:
                continue
            grad = np.zeros(cfg.dim)
            for i in range(2, cfg.c):
                grad[i - 2] = dens[i] * ((j == i) - (j == i + 1))
            grad[cfg.c - 2:] = x * (dens[j] - dens[j - 1])
            out[r] += np.outer(grad, grad) / prob
    return out


def _oracle_monte_carlo(cfg, theta, mc_size, seed):
    xs = RngStream(seed, "fisher-mc").generator.random((mc_size, cfg.p))
    terms = _oracle_information_terms(cfg, theta, xs)
    mean = terms.mean(axis=0)
    var = np.mean(terms * terms, axis=0) - mean * mean
    return 0.5 * (mean + mean.T), float(np.sqrt(np.max(var) / mc_size))


MC_CASES = {
    (2, 2): Theta(alpha=(), beta=(0.8, -0.6)),
    (3, 2): Theta(alpha=(0.9,), beta=(1.0, -0.5)),
    (4, 3): Theta(alpha=(0.7, 1.4), beta=(-1.0, 0.5, 0.3)),
}


def _mc_config(c, p):
    return ModelConfig(c=c, covariates=CovariateSpec(p=p))


class TestFisherMonteCarlo:
    @pytest.mark.parametrize("c,p", sorted(MC_CASES))
    def test_matches_per_row_oracle(self, c, p):
        cfg, th = _mc_config(c, p), MC_CASES[c, p]
        fi = fisher_information(cfg, th, mc_size=2000, seed=5)
        oracle, se = _oracle_monte_carlo(cfg, th, 2000, 5)
        assert fi.method == "monte-carlo"
        np.testing.assert_allclose(fi.matrix, oracle, rtol=1e-12, atol=0)
        assert fi.detail["entry_se_max"] == pytest.approx(se, rel=1e-12)
        assert fi.detail["mc_size"] == 2000 and fi.detail["seed"] == 5

    @pytest.mark.parametrize("c,p", sorted(MC_CASES))
    def test_agrees_with_gauss_legendre(self, c, p):
        """Against a tensor Gauss-Legendre rule on the unit cube (12 nodes a
        side already agrees with 24 to 1e-12; the integrand is analytic)."""
        cfg, th = _mc_config(c, p), MC_CASES[c, p]
        fi = fisher_information(cfg, th)
        nodes, weights = roots_legendre(12)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        xs = np.stack(np.meshgrid(*[nodes] * p, indexing="ij"), -1).reshape(-1, p)
        w = np.prod(np.stack(np.meshgrid(*[weights] * p, indexing="ij"), -1)
                    .reshape(-1, p), axis=1)
        exact = np.einsum("r,rde->de", w, _oracle_information_terms(cfg, th, xs))
        assert np.all(np.abs(fi.matrix - exact) <= 4 * fi.detail["entry_se_max"])

    def test_same_seed_same_bytes(self):
        cfg, th = _mc_config(4, 3), MC_CASES[4, 3]
        a = fisher_information(cfg, th, mc_size=9000, seed=3)
        b = fisher_information(cfg, th, mc_size=9000, seed=3)
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert a.detail == b.detail

    def test_underflowed_cells_are_skipped(self):
        """Where the top cell rounds to probability 0 while its density is
        still positive, the cell is left out of the sum rather than giving
        0/0 or x/0; the result stays finite and positive definite."""
        cfg = _mc_config(3, 2)
        th = Theta(alpha=(0.5,), beta=(6.0, 6.0))
        xs = RngStream(7, "fisher-mc").generator.random((3000, 2))
        probs = cell_probabilities(cfg, th, xs)
        top_density = _phi(0.5 + xs @ th.beta)
        assert np.any((probs[:, 2] == 0.0) & (top_density > 0.0))
        fi = fisher_information(cfg, th, mc_size=3000, seed=7)
        oracle, _ = _oracle_monte_carlo(cfg, th, 3000, 7)
        assert np.all(np.isfinite(fi.matrix))
        assert fi.detail["min_eig"] > 0
        np.testing.assert_allclose(fi.matrix, oracle, rtol=1e-12, atol=0)


class TestDatasets:
    def test_deterministic_and_in_range(self):
        cfg = ModelConfig(c=3)
        th = Theta(alpha=(1.0,), beta=(-1.0,))
        a = sample_dataset(cfg, th, 500, seed=77)
        b = sample_dataset(cfg, th, 500, seed=77)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert a.y.min() >= 1 and a.y.max() <= 3
        assert a.x.shape == (500, 1)

    def test_category_frequencies_match_model(self):
        cfg = ModelConfig(c=3)
        th = Theta(alpha=(1.0,), beta=(-1.0,))
        n = 40_000
        data = sample_dataset(cfg, th, n, seed=5)
        probs = cell_probabilities(cfg, th, data.x)
        for j in range(1, 4):
            expected = probs[:, j - 1].mean()
            observed = np.mean(data.y == j)
            se = np.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) < 5 * se

    def test_roundtrip(self, tmp_path):
        cfg = ModelConfig(c=3)
        th = Theta(alpha=(1.0,), beta=(-1.0,))
        data = sample_dataset(cfg, th, 40, seed=123)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.allclose(back.x, data.x)
        assert np.array_equal(back.y, data.y)
        assert back.c == data.c and back.seed == data.seed
        assert np.array_equal(back.true_theta.alpha, data.true_theta.alpha)
        assert np.array_equal(back.true_theta.beta, data.true_theta.beta)


class TestLogDensities:
    def test_batch_matches_pointwise(self):
        cfg = ModelConfig(c=3)
        th = Theta(alpha=(1.0,), beta=(-1.0,))
        data = sample_dataset(cfg, th, 60, seed=3)
        alphas = np.array([[0.5], [1.5]])
        betas = np.array([[-0.3], [0.8]])
        vals = log_likelihood_batch(cfg, alphas, betas, data)
        for b in range(2):
            t = Theta(alpha=tuple(alphas[b]), beta=tuple(betas[b]))
            probs = cell_probabilities(cfg, t, data.x)
            direct = np.log(probs[np.arange(data.n), data.y - 1]).sum()
            assert vals[b] == pytest.approx(direct, rel=1e-12, abs=1e-9)

    def test_log_prior_cone(self):
        """The posterior is -inf off the ordered cone and finite on it."""
        cfg = ModelConfig(c=4)
        data = sample_dataset(cfg, Theta(alpha=(0.7, 1.4), beta=(-1.0,)), 50,
                              seed=4)
        got = log_posterior_batch(cfg, np.array([[0.5, 1.0], [1.0, 0.5]]),
                                  np.array([[0.2], [0.2]]), data)
        assert np.isfinite(got[0])
        assert got[1] == -np.inf

    def test_prior_draws_respect_cone(self):
        cfg = ModelConfig(c=5)
        draws = prior_theta_draws(cfg, 200, RngStream(8))
        alpha = draws[:, : cfg.c - 2]
        assert np.all(alpha[:, 0] > 0)
        assert np.all(np.diff(alpha, axis=1) > 0)


def _oracle_log_likelihood(alpha, beta, data, chunk=4096):
    """The two-sided likelihood the category-grouped one replaced: both
    cut-points of every observation, with the infinite dummies patched by
    ``isfinite``/``where``. Kept as the bitwise reference."""
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    B = alpha.shape[0]
    out = np.zeros(B)
    valid = np.ones(B, dtype=bool)
    if alpha.shape[1]:
        valid = np.all(alpha > 0, axis=1) & np.all(np.diff(alpha, axis=1) > 0, axis=1)
    cuts = np.concatenate(
        [np.full((B, 1), -np.inf), np.zeros((B, 1)), alpha, np.full((B, 1), np.inf)],
        axis=1,
    )
    for start in range(0, data.n, chunk):
        xs = data.x[start : start + chunk]
        ys = data.y[start : start + chunk]
        bx = beta @ xs.T
        hi = cuts[:, ys] + bx
        lo = cuts[:, ys - 1] + bx
        ph = np.where(np.isfinite(hi), ndtr(np.where(np.isfinite(hi), hi, 0.0)), 1.0)
        pl = np.where(np.isfinite(lo), ndtr(np.where(np.isfinite(lo), lo, 0.0)), 0.0)
        cell = ph - pl
        bad = cell <= 0
        cell = np.where(bad, 1.0, cell)
        out += np.sum(np.log(cell), axis=1)
        out[np.any(bad, axis=1)] = -np.inf
    out[~valid] = -np.inf
    return out


def _draws(c, p, B, seed, extreme=()):
    """B parameter rows near the design point; rows in ``extreme`` get
    beta = +9, -9 or an off-cone cut block in turn."""
    gen = np.random.default_rng(seed)
    alpha = np.cumsum(gen.uniform(0.2, 1.0, (B, c - 2)), axis=1)
    beta = gen.normal(-1.0, 1.5, (B, p))
    for k, row in enumerate(extreme):
        if k % 3 == 0:
            beta[row] = 9.0
        elif k % 3 == 1:
            beta[row] = -9.0
        elif c > 2:
            alpha[row] = -alpha[row]
    return alpha, beta


def _assert_bits(alpha, beta, data):
    cfg = ModelConfig(c=data.c, covariates=CovariateSpec(p=data.p))
    got = log_likelihood_batch(cfg, alpha, beta, data)
    want = _oracle_log_likelihood(alpha, beta, data)
    assert got.tobytes() == want.tobytes()
    return want


class TestLikelihoodBits:
    """The category-grouped, row-blocked likelihood keeps the oracle's bits."""

    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_categories(self, c):
        cfg = ModelConfig(c=c)
        theta0 = Theta(alpha=tuple(0.6 * k for k in range(1, c - 1)), beta=(-1.0,))
        data = sample_dataset(cfg, theta0, 400, seed=40 + c)
        assert all(r.size for r in data.category_rows)
        _assert_bits(*_draws(c, 1, 64, seed=c, extreme=range(0, 64, 7)), data)

    @pytest.mark.parametrize("empty", [1, 2, 4])
    def test_empty_category(self, empty):
        data = sample_dataset(ModelConfig(c=4), Theta(alpha=(0.7, 1.4), beta=(-1.0,)),
                              300, seed=5)
        y = data.y.copy()
        y[y == empty] = 3
        data = Dataset(x=data.x, y=y, c=4)
        assert data.category_rows[empty - 1].size == 0
        _assert_bits(*_draws(4, 1, 40, seed=6, extreme=(3, 4, 5)), data)

    @pytest.mark.parametrize("c", [2, 3])
    def test_single_row(self, c):
        data = sample_dataset(ModelConfig(c=c), Theta(alpha=(1.0,) * (c - 2), beta=(-1.0,)),
                              400, seed=7)
        alpha, beta = _draws(c, 1, 3, seed=8, extreme=(1, 2))
        for row in range(3):
            _assert_bits(alpha[row : row + 1], beta[row : row + 1], data)

    @pytest.mark.parametrize("c,p,n", [(3, 1, 400), (4, 2, 400), (3, 2, 12)])
    def test_row_blocks_with_inf_rows(self, c, p, n):
        cfg = ModelConfig(c=c, covariates=CovariateSpec(p=p))
        theta0 = Theta(alpha=tuple(0.7 * k for k in range(1, c - 1)), beta=(-1.0,) * p)
        data = sample_dataset(cfg, theta0, n, seed=9)
        step = model._LIKELIHOOD_BLOCK // data.n
        # The last block holds one row: numpy multiplies a single row by
        # another BLAS routine, which can round b'x differently at p > 1.
        B = 4 * step + 1
        extreme = [3, 4, 5, step + 1, step + 2, 2 * step + 7, 3 * step + 8]
        want = _assert_bits(*_draws(c, p, B, seed=10, extreme=extreme), data)
        dead = np.flatnonzero(want == -np.inf)
        assert np.unique(dead // step).size >= 3

    def test_two_observation_chunks(self):
        cfg = ModelConfig(c=3)
        data = sample_dataset(cfg, Theta(alpha=(1.0,), beta=(-1.0,)), 5000, seed=11)
        assert model._LIKELIHOOD_CHUNK < data.n < 2 * model._LIKELIHOOD_CHUNK
        want = _assert_bits(*_draws(3, 1, 30, seed=12, extreme=(0, 1, 2, 17)), data)
        assert np.isfinite(want).sum() >= 20

    @settings(max_examples=25, deadline=None)
    @given(c=st.integers(2, 5), p=st.integers(1, 3), n=st.integers(1, 700),
           B=st.integers(1, 120), seed=st.integers(0, 2**31))
    def test_random_shapes(self, c, p, n, B, seed):
        gen = np.random.default_rng(seed)
        data = Dataset(x=gen.random((n, p)), y=gen.integers(1, c + 1, n), c=c)
        _assert_bits(*_draws(c, p, B, seed, extreme=range(0, B, 11)), data)


def _oracle_log_prior(alpha, beta):
    """The prior written out: both quadratic forms, -inf off the ordered
    cone (a NaN cut-point is off it)."""
    alpha = np.atleast_2d(alpha)
    beta = np.atleast_2d(beta)
    out = (-0.5 * np.sum(alpha * alpha, axis=1) / model.SIGMA_ALPHA ** 2
           - 0.5 * np.sum(beta * beta, axis=1) / model.SIGMA_BETA ** 2)
    ok = np.all(alpha > 0, axis=1) & np.all(np.diff(alpha, axis=1) > 0, axis=1)
    return np.where(ok, out, -np.inf)


class TestLogPosteriorRow:
    """The one-row log posterior of the mode search and the Hessian keeps
    the bits of the oracle likelihood plus the prior (at p > 1 a larger
    batch may round b'x differently)."""

    @staticmethod
    def _assert_rows(alpha, beta, data):
        cfg = ModelConfig(c=data.c, covariates=CovariateSpec(p=data.p))
        want = np.array([_oracle_log_prior(a, b)[0]
                         + _oracle_log_likelihood(a, b, data)[0]
                         for a, b in zip(alpha, beta)])
        got = np.array([log_posterior_batch(cfg, a[None], b[None], data)[0]
                        for a, b in zip(alpha, beta)])
        assert got.tobytes() == want.tobytes()
        return want

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2])
    def test_rows_match_batch(self, c, p):
        """Rows near the design, at beta = +-9 (a cell that rounds to 0
        at c >= 3), off the cone, and with two tied cut-points."""
        cfg = ModelConfig(c=c, covariates=CovariateSpec(p=p))
        theta0 = Theta(alpha=tuple(0.7 * k for k in range(1, c - 1)),
                       beta=(-1.0,) * p)
        data = sample_dataset(cfg, theta0, 300, seed=20 + 3 * c + p)
        alpha, beta = _draws(c, p, 60, seed=c + 10 * p,
                             extreme=range(0, 60, 4))
        if c == 4:
            alpha[5, 1] = alpha[5, 0]
        if c == 2:
            beta[7] = 40.0  # the binary likelihood's rounded-off cell
        want = self._assert_rows(alpha, beta, data)
        assert np.isfinite(want).sum() >= 30
        assert (want == -np.inf).any()
        if c > 2:
            off = _oracle_log_prior(alpha, beta) == -np.inf
            assert off.any() and (np.isfinite(log_likelihood_batch(
                cfg, alpha, beta, data)) & ~off).any()

    def test_two_observation_chunks(self):
        cfg = ModelConfig(c=3)
        data = sample_dataset(cfg, Theta(alpha=(1.0,), beta=(-1.0,)), 5000,
                              seed=11)
        assert model._LIKELIHOOD_CHUNK < data.n
        want = self._assert_rows(*_draws(3, 1, 12, seed=13, extreme=(0, 1, 2)),
                                 data)
        assert np.isfinite(want).sum() >= 8

    @pytest.mark.parametrize("c", [3, 4])
    def test_nan_cut_point_is_off_the_cone(self, c):
        cfg = ModelConfig(c=c)
        data = sample_dataset(cfg, Theta(alpha=tuple(0.7 * k for k in range(1, c - 1)),
                                         beta=(-1.0,)), 200, seed=14)
        alpha = np.full((1, c - 2), np.nan)
        got = log_posterior_batch(cfg, alpha, np.array([[-1.0]]), data)
        assert got.tobytes() == np.array([-np.inf]).tobytes()


class TestDrawChunks:
    def test_pool_equals_its_slices(self):
        """One call over a pool of 2 500 rows at p = 2 has the bits of its
        calls on the ``_DRAW_CHUNK``-row slices that SIR once cut."""
        cfg = ModelConfig(c=3, covariates=CovariateSpec(p=2))
        data = sample_dataset(cfg, Theta(alpha=(0.7,), beta=(-1.0, 0.5)), 300,
                              seed=15)
        alpha, beta = _draws(3, 2, 2500, seed=16, extreme=range(0, 2500, 97))
        assert model._DRAW_CHUNK == 1024
        whole = log_likelihood_batch(cfg, alpha, beta, data)
        parts = np.concatenate([
            log_likelihood_batch(cfg, alpha[s : s + 1024], beta[s : s + 1024], data)
            for s in range(0, 2500, 1024)])
        assert whole.tobytes() == parts.tobytes()
        assert (whole == -np.inf).any() and np.isfinite(whole).sum() > 2000


class TestCategoryIndex:
    def test_index_follows_each_datasets_labels(self):
        """Two datasets of one size, shape and x but different labels each
        keep their own category index, in the likelihood and the kernels."""
        cfg = ModelConfig(c=3)
        first = sample_dataset(cfg, Theta(alpha=(1.0,), beta=(-1.0,)), 200, seed=1)
        second = Dataset(x=first.x, y=sample_dataset(
            cfg, Theta(alpha=(0.5,), beta=(1.0,)), 200, seed=2).y, c=3)
        assert not np.array_equal(first.y, second.y)
        alpha, beta = _draws(3, 1, 16, seed=3)
        values = []
        for data in (first, second, first, second):
            values.append(_assert_bits(alpha, beta, data))
            for j, rows in enumerate(data.category_rows, start=1):
                assert np.array_equal(rows, np.flatnonzero(data.y == j))
            low, high = _prepared(cfg, data).cut_rows[0]
            assert low is data.category_rows[1] and high is data.category_rows[2]
        assert values[0].tobytes() != values[1].tobytes()
        assert first.category_rows is not second.category_rows
