"""Reference posteriors, information matrices, and kernel approximations."""

import numpy as np
import pytest

from mcmcdegen import asymptotics
from mcmcdegen.asymptotics import (
    ReferencePosterior,
    build_reference,
    build_reference_sir,
    fisher_blocks,
    kernel_normal_approx,
    km_matrix_effective,
    sir_reference,
)
from mcmcdegen.kernels import VariantId
from mcmcdegen.model import (
    CovariateSpec,
    ModelConfig,
    NumericalFailure,
    Theta,
    fisher_information,
    sample_dataset,
    scale_constants,
    score_second_moment,
)
from mcmcdegen.sampling import RngStream


def _frob_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def km_matrix(variant, g, K, L, Sigma, mu):
    """Quoted closed form of the augmented-model information K_M.

    For the augmented null kernel the moving block is the working scale g
    and K_M = K / g^2. For the augmented beta kernel the moving block is
    (beta, g) and the quoted matrix is [[g^2 K Sigma, L mu], [L mu', K/g^2]].
    This is the form as stated; ``km_matrix_effective`` is what the score
    simulation supports, and the tests below record the gap.
    """
    variant = VariantId.parse(variant)
    if not variant.augmented:
        raise ValueError("quoted K_M forms exist for augmented variants only")
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if variant.parameterization == "null":
        return np.array([[K / g ** 2]])
    p = Sigma.shape[0]
    out = np.empty((p + 1, p + 1))
    out[:p, :p] = g ** 2 * K * Sigma
    out[:p, p] = L * mu
    out[p, :p] = L * mu
    out[p, p] = K / g ** 2
    return out


def mc_km_matrix(variant, cfg, g=1.0, size=100_000, seed=20_240_602):
    """Monte Carlo second moment of the per-observation moving-block score.

    Simulates (x, z) from the augmented complete-data model at g and
    averages the outer product of the score in the moving block. This is
    the adjudicating oracle for the K_M closed forms.
    """
    variant = VariantId.parse(variant)
    gen = RngStream(seed, "km-oracle", variant.name).generator
    if variant.parameterization == "null":
        z = gen.normal(0.0, 1.0 / g, size)
        score = (1.0 / g - g * z * z)[:, None]
        return score.T @ score / size
    x = gen.random((size, cfg.p))
    w = gen.standard_normal(size)
    score_beta = -g * w[:, None] * x
    if not variant.augmented:
        return score_beta.T @ score_beta / size
    score_g = ((1.0 - w * w) / g)[:, None]
    score = np.concatenate([score_beta, score_g], axis=1)
    return score.T @ score / size


class TestClosedForms:
    def setup_method(self):
        cfg = ModelConfig(c=2)
        self.K, self.L = scale_constants()
        self.J0 = score_second_moment()
        self.Sigma = np.array([[1.0 / 3.0]])
        self.mu = np.array([0.5])

    def test_null_block_scales_inverse_square(self):
        m1 = km_matrix("null-ma", 1.0, self.K, self.L, self.Sigma, self.mu)
        m2 = km_matrix("null-ma", 2.0, self.K, self.L, self.Sigma, self.mu)
        assert np.allclose(m1, [[self.K]])
        assert np.allclose(m2, m1 / 4.0)
        assert np.allclose(
            km_matrix_effective("null-ma", 2.0, self.J0, self.K, self.L,
                                self.Sigma, self.mu), m2)

    def test_beta_block_structure(self):
        g = 1.3
        m = km_matrix("beta-ma", g, self.K, self.L, self.Sigma, self.mu)
        assert m.shape == (2, 2)
        assert np.allclose(m, m.T)
        assert np.allclose(m[0, 0], g**2 * self.K * self.Sigma[0, 0])
        assert np.allclose(m[1, 1], self.K / g**2)
        assert np.allclose(m[0, 1], self.L * self.mu[0])

    def test_quoted_slope_block_doubles_effective(self):
        """The stated slope block carries K where the score supports J0;
        for this link that is exactly a factor of two."""
        g = 1.0
        quoted = km_matrix("beta-ma", g, self.K, self.L, self.Sigma, self.mu)
        eff = km_matrix_effective("beta-ma", g, self.J0, self.K, self.L,
                                  self.Sigma, self.mu)
        assert np.allclose(quoted[0, 0] / eff[0, 0], self.K / self.J0)
        assert abs(self.K / self.J0 - 2.0) < 1e-9
        assert np.allclose(quoted[1:, 1:], eff[1:, 1:])

    def test_unaugmented_rules(self):
        with pytest.raises(ValueError):
            km_matrix("beta", 1.0, self.K, self.L, self.Sigma, self.mu)
        with pytest.raises(ValueError):
            km_matrix_effective("null", 1.0, self.J0, self.K, self.L,
                                self.Sigma, self.mu)
        slope_only = km_matrix_effective("beta", 1.0, self.J0, self.K,
                                         self.L, self.Sigma, self.mu)
        assert np.allclose(slope_only, self.J0 * self.Sigma)


class TestScoreOracle:
    """Monte Carlo second moments adjudicate the closed forms."""

    def setup_method(self):
        self.cfg = ModelConfig(c=2)
        self.K, self.L = scale_constants()
        self.J0 = score_second_moment()
        mu, Sigma = self.cfg.covariates.moments()
        self.mu, self.Sigma = mu, Sigma

    def test_null_scale_score(self):
        got = mc_km_matrix("null-ma", self.cfg, g=1.3)
        want = km_matrix("null-ma", 1.3, self.K, self.L, self.Sigma, self.mu)
        assert _frob_rel(got, want) < 0.05

    def test_slope_score_matches_effective_not_quoted(self):
        got = mc_km_matrix("beta", self.cfg)
        eff = km_matrix_effective("beta", 1.0, self.J0, self.K, self.L,
                                  self.Sigma, self.mu)
        assert _frob_rel(got, eff) < 0.05
        quoted_block = self.K * self.Sigma
        assert _frob_rel(got, quoted_block) > 0.4

    def test_joint_score_matches_effective(self):
        got = mc_km_matrix("beta-ma", self.cfg, g=1.3)
        eff = km_matrix_effective("beta-ma", 1.3, self.J0, self.K, self.L,
                                  self.Sigma, self.mu)
        assert _frob_rel(got, eff) < 0.05


class TestFisherBlocks:
    def test_binary_moving_block_is_everything(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        I, m, K_M, findings = fisher_blocks("beta", cfg, theta)
        assert m.all()
        assert np.allclose(I[np.ix_(m, m)], I)
        assert any("J0-form" in f for f in findings)
        # information inequality: J_M = K_M - I_M is PSD
        assert np.linalg.eigvalsh(K_M - I).min() >= -1e-6

    def test_ordinal_masks_and_coupling(self):
        cfg = ModelConfig(c=3)
        theta = Theta((1.0,), (-1.0,))
        I, m, K_M, _ = fisher_blocks("beta", cfg, theta)
        assert m.tolist() == [False, True]
        assert I[np.ix_(m, ~m)].shape == (1, 1)
        assert K_M.shape == (1, 1)

    def test_empirical_moments_used_with_data(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        data = sample_dataset(cfg, theta, 50, seed=3)
        _, _, K_M, findings = fisher_blocks("beta", cfg, theta, data=data)
        want = score_second_moment() * (data.x.T @ data.x / data.n)
        assert np.allclose(K_M, want)
        assert any("empirical" in f for f in findings)

    def test_contraction_spectrum(self):
        """The one-step linear map K_M^{-1} J_M must be a contraction."""
        for b in (0.5, 2.0, 4.0):
            I, m, K_M, _ = fisher_blocks("beta", ModelConfig(c=2),
                                         Theta((), (b,)))
            J_M = K_M - I[np.ix_(m, m)]
            lam = np.linalg.eigvals(np.linalg.inv(K_M) @ J_M)
            assert np.all(lam.real >= -1e-9)
            assert np.all(lam.real < 1.0)

    def test_rejects_other_kernels(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        for name in ("beta-ma", "null", "null-ma"):
            with pytest.raises(ValueError):
                fisher_blocks(name, cfg, theta)


class TestReferenceBanks:
    def setup_method(self):
        self.cfg = ModelConfig(c=2)
        self.theta = Theta((), (2.0,))
        self.data = sample_dataset(self.cfg, self.theta, 120, seed=9)

    def test_sir_bank_properties(self):
        info = {}
        bank = build_reference_sir(self.cfg, self.data, 512,
                                   RngStream(10, "bank"), pool=4096,
                                   info=info)
        assert bank.shape == (512, 1)
        assert len({tuple(r) for r in bank}) == 512
        assert info["ess"] >= 512
        sd = np.sqrt(np.linalg.inv(
            fisher_information(self.cfg, self.theta).matrix)[0, 0]
            / self.data.n)
        assert abs(bank.mean() - info["mode"][0]) < 4 * sd

    def test_weak_importance_sampler_raises(self):
        """A bank as large as the pool needs ESS = pool, which unequal
        weights never reach."""
        with pytest.raises(NumericalFailure,
                           match="importance sampler too weak"):
            build_reference_sir(self.cfg, self.data, 256,
                                RngStream(10, "weak"), pool=256)

    def test_sir_bank_deterministic(self):
        b1 = build_reference_sir(self.cfg, self.data, 64, RngStream(11, "b"),
                                 pool=2048)
        b2 = build_reference_sir(self.cfg, self.data, 64, RngStream(11, "b"),
                                 pool=2048)
        assert np.array_equal(b1, b2)

    def test_fisher_fallback_when_hessian_fails(self, monkeypatch):
        """A Hessian whose inverse has no Cholesky factor sends the proposal
        covariance to the Monte Carlo information at p = 2."""
        cfg = ModelConfig(c=3, covariates=CovariateSpec(p=2))
        data = sample_dataset(cfg, Theta((0.7,), (1.0, 1.0)), 300, seed=21)
        monkeypatch.setattr(asymptotics, "_hessian_fd",
                            lambda fun, x0: -np.eye(x0.size))
        calls = []
        real = asymptotics.fisher_information

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "fisher_information", counted)
        banks = []
        for _ in range(2):
            info = {}
            banks.append(build_reference_sir(cfg, data, 256, RngStream(22, "fb"),
                                             pool=4096, info=info))
            assert info["ess"] >= 256
        assert len(calls) == 2
        assert banks[0].shape == (256, 3)
        assert banks[0].tobytes() == banks[1].tobytes()

    def test_sir_reference_packaging(self):
        ref = sir_reference(self.cfg, self.data, 256, seed=12, pool=4096)
        assert ref.size == 256 and ref.dim == 1
        assert ref.provenance["method"] == "sir"
        assert np.allclose(ref.bvm_cov, ref.bvm_cov.T)
        assert np.all(np.linalg.eigvalsh(ref.bvm_cov) > 0)
        assert np.array_equal(ref.bvm_mean, ref.theta_hat)

    def test_chain_reference_agrees_with_sir(self):
        """Two independent constructions of the same posterior."""
        chain = build_reference(self.cfg, self.data, seed=13, length=6000,
                                burn=500, thin=5)
        sir = sir_reference(self.cfg, self.data, 1024, seed=14, pool=4096)
        assert chain.provenance["method"] == "chain"
        gap = abs(chain.theta_hat[0] - sir.theta_hat[0])
        assert gap < 4 * np.sqrt(chain.bvm_cov[0, 0]) / 3
        assert chain.sample.shape[0] >= 1000

    def test_roundtrip(self, tmp_path):
        ref = sir_reference(self.cfg, self.data, 64, seed=15, pool=2048)
        ref.warnings.append("note")
        path = tmp_path / "ref.csv"
        ref.save(path)
        back = ReferencePosterior.load(path)
        assert np.array_equal(back.sample, ref.sample)
        assert np.allclose(back.theta_hat, ref.theta_hat)
        assert np.allclose(back.bvm_cov, ref.bvm_cov)
        assert back.n == ref.n
        assert back.provenance["method"] == "sir"
        assert back.warnings == ["note"]


class TestKernelApprox:
    def setup_method(self):
        self.cfg = ModelConfig(c=2)
        self.theta0 = Theta((), (2.0,))
        self.data = sample_dataset(self.cfg, self.theta0, 200, seed=16)
        self.ref = sir_reference(self.cfg, self.data, 512, seed=17, pool=4096)

    def test_fixed_point_at_center(self):
        that = Theta.from_vector(self.ref.theta_hat, 2, 1)
        mean, cov, findings = kernel_normal_approx("beta", self.cfg,
                                                   self.data, self.ref, that)
        assert np.allclose(mean, self.ref.theta_hat, atol=1e-12)
        assert np.allclose(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > 0)
        assert any("J0-form" in f for f in findings)

    def test_displacement_is_linear(self):
        hat = self.ref.theta_hat
        d1, _, _ = kernel_normal_approx("beta", self.cfg, self.data, self.ref,
                                        Theta.from_vector(hat + 0.1, 2, 1))
        d2, _, _ = kernel_normal_approx("beta", self.cfg, self.data, self.ref,
                                        Theta.from_vector(hat + 0.2, 2, 1))
        step1 = d1 - hat
        step2 = d2 - hat
        assert np.allclose(step2, 2.0 * step1, atol=1e-12)
        contraction = step1[0] / 0.1
        assert 0.0 <= contraction < 1.0

    def test_cov_matches_blocks(self):
        that = Theta.from_vector(self.ref.theta_hat, 2, 1)
        _, cov, _ = kernel_normal_approx("beta", self.cfg, self.data,
                                         self.ref, that)
        I, m, K_M, _ = fisher_blocks("beta", self.cfg, that, data=self.data)
        K_inv = np.linalg.inv(K_M)
        J_M = K_M - I[np.ix_(m, m)]
        want = (K_inv + K_inv @ J_M @ K_inv) / self.data.n
        assert np.allclose(cov, 0.5 * (want + want.T))

    def test_frozen_block_couples_through_information(self):
        cfg = ModelConfig(c=3)
        theta0 = Theta((1.0,), (-1.0,))
        data = sample_dataset(cfg, theta0, 150, seed=18)
        ref = sir_reference(cfg, data, 512, seed=19, pool=4096)
        hat = ref.theta_hat
        shifted = hat.copy()
        shifted[0] += 0.2  # displace the frozen cut-point only
        mean, _, _ = kernel_normal_approx("beta", cfg, data, ref,
                                          Theta.from_vector(shifted, 3, 1))
        base, _, _ = kernel_normal_approx("beta", cfg, data, ref,
                                          Theta.from_vector(hat, 3, 1))
        I, m, K_M, _ = fisher_blocks("beta", cfg, Theta.from_vector(hat, 3, 1),
                                     data=data)
        want = np.linalg.inv(K_M) @ I[np.ix_(m, ~m)] @ np.array([0.2])
        assert np.allclose(mean - base, want, atol=1e-12)
