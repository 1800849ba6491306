"""Reference posteriors, information matrices, and the two-point test."""

import numpy as np
import pytest

from mcmcdegen import asymptotics
from mcmcdegen.asymptotics import (
    FisherBlocks,
    ReferencePosterior,
    TwoPointTest,
    build_reference,
    build_reference_sir,
    fisher_blocks,
    kernel_normal_approx,
    km_matrix,
    km_matrix_effective,
    mc_km_matrix,
    sir_reference,
    two_point_test_value,
)
from mcmcdegen.model import (
    CovariateSpec,
    ModelConfig,
    Theta,
    fisher_information,
    sample_dataset,
    scale_constants,
    score_second_moment,
)
from mcmcdegen.sampling import RngStream


def _frob_rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestClosedForms:
    def setup_method(self):
        cfg = ModelConfig(c=2)
        self.K, self.L = scale_constants(cfg.link)
        self.J0 = score_second_moment(cfg.link)
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
        self.theta = Theta((), (2.0,))
        self.K, self.L = scale_constants(self.cfg.link)
        self.J0 = score_second_moment(self.cfg.link)
        mu, Sigma = self.cfg.covariates.moments()
        self.mu, self.Sigma = mu, Sigma

    def test_null_scale_score(self):
        got = mc_km_matrix("null-ma", self.cfg, self.theta, g=1.3)
        want = km_matrix("null-ma", 1.3, self.K, self.L, self.Sigma, self.mu)
        assert _frob_rel(got, want) < 0.05

    def test_slope_score_matches_effective_not_quoted(self):
        got = mc_km_matrix("beta", self.cfg, self.theta)
        eff = km_matrix_effective("beta", 1.0, self.J0, self.K, self.L,
                                  self.Sigma, self.mu)
        assert _frob_rel(got, eff) < 0.05
        quoted_block = self.K * self.Sigma
        assert _frob_rel(got, quoted_block) > 0.4

    def test_joint_score_matches_effective(self):
        got = mc_km_matrix("beta-ma", self.cfg, self.theta, g=1.3)
        eff = km_matrix_effective("beta-ma", 1.3, self.J0, self.K, self.L,
                                  self.Sigma, self.mu)
        assert _frob_rel(got, eff) < 0.05


class TestFisherBlocks:
    def test_binary_moving_block_is_everything(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        fb = fisher_blocks("beta", cfg, theta)
        assert fb.m_mask.all()
        assert np.allclose(fb.I_M, fb.I)
        assert any("J0-form" in f for f in fb.findings)
        assert fb.check_psd() == list(fb.findings)  # no violations appended

    def test_ordinal_masks_and_coupling(self):
        cfg = ModelConfig(c=3)
        theta = Theta((1.0,), (-1.0,))
        fb = fisher_blocks("beta", cfg, theta)
        assert fb.m_mask.tolist() == [False, True]
        assert fb.I_MF.shape == (1, 1)
        assert fb.K_M.shape == (1, 1)

    def test_empirical_moments_used_with_data(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        data = sample_dataset(cfg, theta, 50, seed=3)
        fb = fisher_blocks("beta", cfg, theta, data=data)
        J0 = score_second_moment(cfg.link)
        want = J0 * (data.x.T @ data.x / data.n)
        assert np.allclose(fb.K_M, want)
        assert any("empirical" in f for f in fb.findings)

    def test_contraction_spectrum(self):
        """The one-step linear map K_M^{-1} J_M must be a contraction."""
        for b in (0.5, 2.0, 4.0):
            fb = fisher_blocks("beta", ModelConfig(c=2), Theta((), (b,)))
            lam = np.linalg.eigvals(np.linalg.inv(fb.K_M) @ fb.J_M)
            assert np.all(lam.real >= -1e-9)
            assert np.all(lam.real < 1.0)

    def test_rejects_other_kernels(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        for name in ("beta-ma", "null", "null-ma"):
            with pytest.raises(ValueError):
                fisher_blocks(name, cfg, theta)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            FisherBlocks(I=np.array([[1.0, 0.2], [0.1, 1.0]]),
                         m_mask=np.array([True, True]),
                         K_M=np.eye(2))


class TestTwoPointTest:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwoPointTest(i=1, z_i=0.5, delta=0.0, c_i=0.6)
        with pytest.raises(ValueError):
            TwoPointTest(i=1, z_i=0.5, delta=0.1, c_i=1.5)
        with pytest.raises(ValueError):
            TwoPointTest(i=1, z_i=5.0, delta=0.1, c_i=0.6)
        t = TwoPointTest(i=1, z_i=0.95, delta=0.1, c_i=0.6)
        assert abs(t.p_i - 0.15) < 1e-12  # ball clipped to the support

    def test_half_weight_never_beats_half(self):
        cfg = ModelConfig(c=2)
        t = TwoPointTest(i=1, z_i=0.5, delta=0.2, c_i=0.5)
        for b in (-3.0, 0.0, 0.7, 2.0, 5.0):
            v = two_point_test_value(t, Theta((), (b,)), cfg)
            assert v <= 0.5 + 1e-12
        assert two_point_test_value(t, Theta((), (2.0,)), cfg) < 0.5

    def test_runaway_limit_exceeds_half(self):
        cfg = ModelConfig(c=2)
        t = TwoPointTest(i=1, z_i=0.5, delta=0.2, c_i=0.75)
        limit = (1.0 - t.p_i**2) / 2.0 + t.c_i * t.p_i**2
        assert limit > 0.5
        v = two_point_test_value(t, Theta((), (500.0,)), cfg)
        assert abs(v - limit) < 1e-3
        assert v > 0.5

    def test_grid_separates_truth_from_runaway(self):
        """With c_i = 3/4 the expected value crosses 1/2 somewhere on a
        slope grid: below at moderate truth, above far out."""
        cfg = ModelConfig(c=2)
        t = TwoPointTest(i=1, z_i=0.5, delta=0.25, c_i=0.75)
        vals = [two_point_test_value(t, Theta((), (b,)), cfg)
                for b in np.linspace(0.0, 40.0, 21)]
        assert vals[0] < 0.5
        assert max(vals) > 0.5

    def test_binary_scalar_only(self):
        t = TwoPointTest(i=1, z_i=0.5, delta=0.2, c_i=0.6)
        with pytest.raises(ValueError):
            two_point_test_value(t, Theta((1.0,), (-1.0,)), ModelConfig(c=3))


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
        assert gap < 4 * chain.marginal_sd()[0] / 3
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
        ap = kernel_normal_approx("beta", self.cfg, self.data, self.ref, that)
        assert np.allclose(ap.mean, self.ref.theta_hat, atol=1e-12)
        assert np.allclose(ap.cov, ap.cov.T)
        assert np.all(np.linalg.eigvalsh(ap.cov) > 0)
        assert any("J0-form" in f for f in ap.findings)

    def test_displacement_is_linear(self):
        hat = self.ref.theta_hat
        d1 = kernel_normal_approx("beta", self.cfg, self.data, self.ref,
                                  Theta.from_vector(hat + 0.1, 2, 1))
        d2 = kernel_normal_approx("beta", self.cfg, self.data, self.ref,
                                  Theta.from_vector(hat + 0.2, 2, 1))
        step1 = d1.mean - hat
        step2 = d2.mean - hat
        assert np.allclose(step2, 2.0 * step1, atol=1e-12)
        contraction = step1[0] / 0.1
        assert 0.0 <= contraction < 1.0

    def test_cov_matches_blocks(self):
        that = Theta.from_vector(self.ref.theta_hat, 2, 1)
        ap = kernel_normal_approx("beta", self.cfg, self.data, self.ref, that)
        K_inv = np.linalg.inv(ap.blocks.K_M)
        want = (K_inv + K_inv @ ap.blocks.J_M @ K_inv) / self.data.n
        assert np.allclose(ap.cov, 0.5 * (want + want.T))

    def test_frozen_block_couples_through_information(self):
        cfg = ModelConfig(c=3)
        theta0 = Theta((1.0,), (-1.0,))
        data = sample_dataset(cfg, theta0, 150, seed=18)
        ref = sir_reference(cfg, data, 512, seed=19, pool=4096)
        hat = ref.theta_hat
        shifted = hat.copy()
        shifted[0] += 0.2  # displace the frozen cut-point only
        ap = kernel_normal_approx("beta", cfg, data, ref,
                                  Theta.from_vector(shifted, 3, 1))
        base = kernel_normal_approx("beta", cfg, data, ref,
                                    Theta.from_vector(hat, 3, 1))
        K_inv = np.linalg.inv(ap.blocks.K_M)
        want = K_inv @ ap.blocks.I_MF @ np.array([0.2])
        assert np.allclose(ap.mean - base.mean, want, atol=1e-12)
