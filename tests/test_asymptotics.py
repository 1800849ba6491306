"""Reference posteriors, information matrices, and kernel approximations."""

import numpy as np
import pytest
from scipy.stats import norm

from mcmcdegen import asymptotics
from mcmcdegen.asymptotics import (
    ReferencePosterior,
    build_reference,
    build_reference_sir,
    fisher_blocks,
    kernel_normal_approx,
    sir_reference,
)
from mcmcdegen.metrics import one_step_statistic
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


def mc_km_matrix(cfg, size=100_000, seed=20_240_602):
    """Monte Carlo second moment of the per-observation slope score -w x,
    with x uniform on the unit cube and w standard normal: the oracle of
    K_M's slope block."""
    gen = RngStream(seed, "km-oracle", "beta").generator
    x = gen.random((size, cfg.p))
    w = gen.standard_normal(size)
    score = -w[:, None] * x
    return score.T @ score / size


class TestClosedForms:
    def test_quoted_slope_block_doubles_effective(self):
        """The stated slope block K Sigma carries K where the score supports
        J0; for this link that is exactly a factor of two over the K_M that
        fisher_blocks computes."""
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        data = sample_dataset(cfg, theta, 200, seed=3)
        _, _, eff, _ = fisher_blocks("beta", cfg, theta, data)
        K, _ = scale_constants()
        J0 = score_second_moment()
        quoted = K * (data.x.T @ data.x / data.n)
        assert np.allclose(quoted / eff, K / J0)
        assert abs(K / J0 - 2.0) < 1e-9


class TestScoreOracle:
    def test_slope_score_matches_effective_not_quoted(self):
        """The score supports J0 Sigma; the quoted slope block carries K
        where the score has J0."""
        got = mc_km_matrix(ModelConfig(c=2))
        Sigma = np.array([[1.0 / 3.0]])
        J0 = score_second_moment()
        K, _ = scale_constants()
        assert _frob_rel(got, J0 * Sigma) < 0.05
        assert _frob_rel(got, K * Sigma) > 0.4


class TestFisherBlocks:
    def test_binary_moving_block_is_everything(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        data = sample_dataset(cfg, theta, 400, seed=3)
        I, m, K_M, findings = fisher_blocks("beta", cfg, theta, data)
        assert m.all()
        assert np.allclose(I[np.ix_(m, m)], I)
        assert any("J0-form" in f for f in findings)
        # information inequality: J_M = K_M - I_M is PSD
        assert np.linalg.eigvalsh(K_M - I).min() >= -1e-6

    def test_ordinal_masks_and_coupling(self):
        cfg = ModelConfig(c=3)
        theta = Theta((1.0,), (-1.0,))
        data = sample_dataset(cfg, theta, 400, seed=4)
        I, m, K_M, _ = fisher_blocks("beta", cfg, theta, data)
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
        cfg = ModelConfig(c=2)
        for b in (0.5, 2.0, 4.0):
            theta = Theta((), (b,))
            data = sample_dataset(cfg, theta, 400, seed=5)
            I, m, K_M, _ = fisher_blocks("beta", cfg, theta, data)
            J_M = K_M - I[np.ix_(m, m)]
            lam = np.linalg.eigvals(np.linalg.inv(K_M) @ J_M)
            assert np.all(lam.real >= -1e-9)
            assert np.all(lam.real < 1.0)

    def test_rejects_other_kernels(self):
        cfg = ModelConfig(c=2)
        theta = Theta((), (2.0,))
        data = sample_dataset(cfg, theta, 400, seed=6)
        for name in ("beta-ma", "null", "null-ma"):
            with pytest.raises(ValueError):
                fisher_blocks(name, cfg, theta, data)


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


class TestOneStepLevel:
    """The level of D, not only its ratios across n, against the normal
    approximation. One step from stationarity moves theta by
    (a - 1)(theta - theta_hat) + e, with a the slope of the approximation's
    mean, theta - theta_hat ~ N(0, v) (v the BvM covariance) and e ~ N(0, w)
    (w the approximation's covariance). So sqrt(n) times the step is normal
    with s^2 = n((a - 1)^2 v + w), and D = E min(s|Z|, 1)."""

    @staticmethod
    def _predicted(cfg, data, ref):
        hat = ref.theta_hat
        at_hat, w, _ = kernel_normal_approx("beta", cfg, data, ref,
                                            Theta.from_vector(hat, 2, 1))
        moved, _, _ = kernel_normal_approx("beta", cfg, data, ref,
                                           Theta.from_vector(hat + 1.0, 2, 1))
        a = moved[0] - at_hat[0]
        s = np.sqrt(data.n * ((a - 1.0) ** 2 * ref.bvm_cov[0, 0] + w[0, 0]))
        return (2.0 * s * (norm.pdf(0.0) - norm.pdf(1.0 / s))
                + 2.0 * norm.sf(1.0 / s))

    @pytest.mark.parametrize("n", [100, 400])
    def test_beta_c2_level_matches_prediction(self, n):
        cfg = ModelConfig(c=2)
        theta0 = Theta((), (2.0,))
        predicted = []
        for seed in (11, 12, 13):
            data = sample_dataset(cfg, theta0, n, seed=seed)
            ref = sir_reference(cfg, data, 1024, seed=seed + 1, pool=8192)
            predicted.append(self._predicted(cfg, data, ref))
        rep = one_step_statistic("beta", cfg, n, 32, "theta", 7 + n,
                                 theta0=theta0, datasets=4, inner=16,
                                 starts=8, bank_size=1024, pool=8192)
        assert 0.8 < min(predicted) and max(predicted) < 0.9
        assert abs(np.mean(predicted) - rep.value("D")) < 0.02
