"""Gibbs kernel correctness: conditionals, invariance, aliases, traces."""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import gamma as gamma_dist
from scipy.stats import ks_2samp, norm

from mcmcdegen.asymptotics import build_reference_sir
from mcmcdegen import kernels
from mcmcdegen.kernels import (
    ChainState,
    _scan_alpha,
    _scan_beta_null,
    _sweep_one,
    VariantId,
    draw_latent,
    initial_state,
    kernel_step,
    load_trace,
    run_chain,
    trace_filename,
    transform_names,
    update_g,
    update_theta_beta,
    update_theta_null,
)
from mcmcdegen.model import (
    A0,
    B0,
    SIGMA_ALPHA,
    SIGMA_BETA,
    CovariateSpec,
    Dataset,
    ModelConfig,
    Theta,
    sample_dataset,
)
from mcmcdegen.sampling import (MASS_FLOOR, DegenerateIntervalError,
                                RngStream, SamplingError, truncated_normal_vec)
from test_sampling import _oracle_truncated_normal_vec


def _prepared_state(cfg, data, variant, theta, g, rng):
    """A one-chain state with latents drawn, ready for conditional checks."""
    state = ChainState(
        alpha=np.array([theta.alpha]),
        beta=np.array([theta.beta]),
        g=np.array([float(g)]),
    )
    draw_latent(cfg, data, state, variant, rng)
    return state


class TestVariantId:
    def test_parse_all_names(self):
        v = VariantId.parse("null-ma")
        assert v.parameterization == "null" and v.augmented and not v.binary
        b = VariantId.parse("binary-beta")
        assert b.parameterization == "beta" and not b.augmented and b.binary
        with pytest.raises(ValueError):
            VariantId.parse("nope")


class TestScaleConditional:
    @pytest.mark.parametrize("variant", ["null-ma", "beta-ma"])
    def test_gamma_density_matches_grid_oracle(self, variant):
        """Analytic Gamma for g^2 vs grid-normalized joint density."""
        v = VariantId.parse(variant)
        cfg = ModelConfig(c=3)
        theta = Theta(alpha=(1.0,), beta=(-1.0,))
        data = sample_dataset(cfg, theta, 50, seed=4)
        rng = RngStream(17, variant)
        state = _prepared_state(cfg, data, v, theta, 1.3, rng)
        z = state.z[0]
        resid = z if v.parameterization == "null" else z + data.x @ theta.beta
        shape = A0 + 0.5 * (data.n + cfg.c - 2 + cfg.p)
        rate = (B0 + 0.5 * np.sum(resid**2)
                + 0.5 * np.sum(theta.alpha**2) / SIGMA_ALPHA**2
                + 0.5 * np.sum(theta.beta**2) / SIGMA_BETA**2)
        mean, sd = shape / rate, np.sqrt(shape) / rate
        ts = np.linspace(max(mean - 8 * sd, 1e-9), mean + 8 * sd, 4001)
        mu = -(data.x @ theta.beta) if v.parameterization == "beta" else 0.0
        logs = np.array([
            norm.logpdf(z, loc=mu, scale=1 / np.sqrt(t)).sum()
            + norm.logpdf(theta.alpha, scale=SIGMA_ALPHA / np.sqrt(t)).sum()
            + norm.logpdf(theta.beta, scale=SIGMA_BETA / np.sqrt(t)).sum()
            + gamma_dist.logpdf(t, a=A0, scale=1 / B0)
            for t in ts])
        dens = np.exp(logs - logs.max())
        dens /= simpson(dens, x=ts)
        ref = gamma_dist.pdf(ts, a=shape, scale=1 / rate)
        inner = ref > ref.max() * 1e-6
        rel = np.max(np.abs(dens[inner] - ref[inner]) / ref[inner])
        assert rel < 1e-8

    @pytest.mark.parametrize("variant", ["null-ma", "beta-ma"])
    def test_update_g_samples_that_gamma(self, variant):
        """update_g draws match the analytic conditional distributionally."""
        v = VariantId.parse(variant)
        cfg = ModelConfig(c=3)
        theta = Theta(alpha=(1.0,), beta=(-1.0,))
        data = sample_dataset(cfg, theta, 50, seed=4)
        rng = RngStream(18, variant)
        state = _prepared_state(cfg, data, v, theta, 1.3, rng)
        B = 20_000
        big = ChainState(
            alpha=np.repeat(state.alpha, B, axis=0),
            beta=np.repeat(state.beta, B, axis=0),
            g=np.repeat(state.g, B),
            z=np.repeat(state.z, B, axis=0),
        )
        update_g(cfg, data, big, v, rng.child("draws"))
        z = state.z[0]
        resid = z if v.parameterization == "null" else z + data.x @ theta.beta
        shape = A0 + 0.5 * (data.n + cfg.c - 2 + cfg.p)
        rate = (B0 + 0.5 * np.sum(resid**2)
                + 0.5 * np.sum(theta.alpha**2) / SIGMA_ALPHA**2
                + 0.5 * np.sum(theta.beta**2) / SIGMA_BETA**2)
        p = ks_2samp(big.g**2, gamma_dist(a=shape, scale=1 / rate).rvs(
            size=B, random_state=np.random.default_rng(1))).pvalue
        assert p > 1e-3

    def test_unaugmented_leaves_g_fixed(self):
        cfg = ModelConfig(c=2)
        theta = Theta(alpha=(), beta=(2.0,))
        data = sample_dataset(cfg, theta, 30, seed=2)
        v = VariantId.parse("beta")
        state = _prepared_state(cfg, data, v, theta, 1.0, RngStream(3))
        update_g(cfg, data, state, v, RngStream(4))
        assert np.all(state.g == 1.0)


class TestBinaryAliases:
    def test_binary_null_is_null_at_c2(self):
        cfg = ModelConfig(c=2)
        theta = Theta(alpha=(), beta=(1.5,))
        data = sample_dataset(cfg, theta, 80, seed=6)
        s1 = initial_state(cfg, VariantId.parse("null"), 1, RngStream(0),
                          init="fixed", theta=theta)
        s2 = initial_state(cfg, VariantId.parse("binary-null"), 1,
                          RngStream(0), init="fixed", theta=theta)
        for t in range(25):
            kernel_step(cfg, data, s1, VariantId.parse("null"),
                        RngStream(9, "steps", t))
            kernel_step(cfg, data, s2, VariantId.parse("binary-null"),
                        RngStream(9, "steps", t))
        assert np.array_equal(s1.beta, s2.beta)
        assert np.array_equal(s1.z, s2.z)

    def test_binary_beta_is_beta_at_c2(self):
        cfg = ModelConfig(c=2)
        theta = Theta(alpha=(), beta=(1.5,))
        data = sample_dataset(cfg, theta, 80, seed=6)
        s1 = initial_state(cfg, VariantId.parse("beta"), 1, RngStream(0),
                          init="fixed", theta=theta)
        s2 = initial_state(cfg, VariantId.parse("binary-beta"), 1,
                          RngStream(0), init="fixed", theta=theta)
        for t in range(25):
            kernel_step(cfg, data, s1, VariantId.parse("beta"),
                        RngStream(10, "steps", t))
            kernel_step(cfg, data, s2, VariantId.parse("binary-beta"),
                        RngStream(10, "steps", t))
        assert np.array_equal(s1.beta, s2.beta)

    def test_binary_aliases_reject_ordinal(self):
        cfg = ModelConfig(c=3)
        theta = Theta(alpha=(1.0,), beta=(-1.0,))
        for name in ("binary-null", "binary-beta"):
            with pytest.raises(ValueError, match="c = 2"):
                initial_state(cfg, VariantId.parse(name), 1, RngStream(0),
                              init="fixed", theta=theta)


class TestInitialState:
    def test_ma_start_reproduces_identified_rows(self):
        cfg = ModelConfig(c=3)
        theta = Theta(alpha=(1.0,), beta=(-1.0,))
        data = sample_dataset(cfg, theta, 60, seed=8)
        bank = build_reference_sir(cfg, data, 256, RngStream(12, "bank"))
        state = initial_state(cfg, VariantId.parse("beta-ma"), 128,
                              RngStream(13), init="reference-posterior",
                              reference=bank)
        ident = state.g[:, None] * np.concatenate([state.alpha, state.beta],
                                                  axis=1)
        gaps = np.abs(ident[:, None, :] - bank[None, :, :]).max(axis=2)
        assert gaps.min(axis=1).max() < 1e-12
        assert len({tuple(r) for r in ident}) == 128  # no duplicate starts

    def test_g_quantiles_deterministic(self):
        cfg = ModelConfig(c=2)
        theta = Theta(alpha=(), beta=(2.0,))
        data = sample_dataset(cfg, theta, 40, seed=3)
        bank = build_reference_sir(cfg, data, 64, RngStream(14, "bank"))
        q = np.linspace(0.1, 0.9, 8)
        s = initial_state(cfg, VariantId.parse("null-ma"), 8, RngStream(15),
                          init="reference-posterior", reference=bank,
                          g_quantiles=q)
        expected = np.sqrt(gamma_dist.ppf(q, a=A0, scale=1 / B0))
        assert s.g.tobytes() == expected.tobytes()
        # 16 stratified quantiles, built as one_step_statistic builds them
        u = RngStream(16).generator.random((1, 16))
        q16 = ((np.arange(16)[None, :] + u) / 16).reshape(-1)
        s16 = initial_state(cfg, VariantId.parse("null-ma"), 16, RngStream(15),
                            init="reference-posterior", reference=bank,
                            g_quantiles=q16)
        expected16 = np.sqrt(gamma_dist.ppf(q16, a=A0, scale=1 / B0))
        assert s16.g.tobytes() == expected16.tobytes()
        with pytest.raises(ValueError):
            initial_state(cfg, VariantId.parse("null-ma"), 8, RngStream(15),
                          init="reference-posterior", reference=bank,
                          g_quantiles=q[:3])

    def test_fixed_needs_theta(self):
        cfg = ModelConfig(c=2)
        with pytest.raises(ValueError):
            initial_state(cfg, VariantId.parse("beta"), 1, RngStream(0),
                          init="fixed")


class TestInvarianceSmoke:
    def test_one_step_preserves_marginals(self):
        cfg = ModelConfig(c=3)
        theta = Theta(alpha=(1.0,), beta=(-1.0,))
        data = sample_dataset(cfg, theta, 100, seed=21)
        v = VariantId.parse("beta-ma")
        bank = build_reference_sir(cfg, data, 1024, RngStream(22, "bank"),
                                   pool=8192)
        state = initial_state(cfg, v, 1000, RngStream(23),
                              init="reference-posterior", reference=bank)
        before = np.column_stack([state.alpha, state.beta, state.g])
        kernel_step(cfg, data, state, v, RngStream(24))
        after = np.column_stack([state.alpha, state.beta, state.g])
        for j in range(before.shape[1]):
            assert ks_2samp(before[:, j], after[:, j]).pvalue > 1e-3


class TestStateAndTraces:
    def test_cone_violation_caught(self):
        state = ChainState(alpha=np.array([[1.0, 0.5]]),
                           beta=np.array([[0.0]]), g=np.ones(1))
        with pytest.raises(AssertionError):
            state.check_cone()

    def test_trace_roundtrip_exact(self, tmp_path):
        cfg = ModelConfig(c=4)
        theta = Theta(alpha=(0.7, 1.4), beta=(-1.0,))
        data = sample_dataset(cfg, theta, 50, seed=31)
        trace = run_chain(cfg, data, "beta-ma", 10, RngStream(32),
                          init="fixed", theta=theta)
        path = tmp_path / trace_filename(VariantId.parse("beta-ma"), 50)
        assert path.name == "beta-ma_n50_r0.csv"
        trace.save(path)
        cols = load_trace(path)
        assert np.array_equal(cols["alpha2"], trace.alpha[:, 0, 0])
        assert np.array_equal(cols["alpha3"], trace.alpha[:, 0, 1])
        assert np.array_equal(cols["beta1"], trace.beta[:, 0, 0])
        assert np.array_equal(cols["g"], trace.g[:, 0])
        assert np.array_equal(cols["galpha2"],
                              trace.g[:, 0] * trace.alpha[:, 0, 0])
        assert np.array_equal(cols["ratio32"],
                              trace.alpha[:, 0, 1] / trace.alpha[:, 0, 0])

    def test_run_chain_records(self):
        cfg = ModelConfig(c=2)
        theta = Theta(alpha=(), beta=(2.0,))
        data = sample_dataset(cfg, theta, 30, seed=33)
        trace = run_chain(cfg, data, "beta", 9, RngStream(34), init="fixed",
                          theta=theta, record_every=3)
        assert list(trace.steps) == [0, 3, 6, 9]
        assert trace.alpha.shape == (4, 1, 0)
        assert np.all(trace.beta[0, 0] == 2.0)

    def test_transform_names_map(self):
        assert transform_names(VariantId.parse("beta"), 3, 1) == []
        assert transform_names(VariantId.parse("beta-ma"), 3, 1) == [
            "galpha2", "gbeta1"]
        assert transform_names(VariantId.parse("null-ma"), 4, 1) == [
            "galpha2", "galpha3", "gbeta1", "ratio32"]
        assert transform_names(VariantId.parse("beta"), 4, 1) == ["ratio32"]


class TestDegenerateRescue:
    def test_far_displaced_state_still_steps(self):
        """Start absurdly far from the data: the high covariate rows put the
        latent window 40+ sd out, its mass underflows doubles, and the
        elementwise high-precision path has to take over."""
        cfg = ModelConfig(c=2)
        x = np.concatenate([np.linspace(0.05, 0.6, 36), [0.93, 0.96, 0.99, 1.0]])
        y = np.where(x > 0.5, 2, 1)
        data = Dataset(x=x[:, None], y=y, c=2)
        state = ChainState(alpha=np.zeros((1, 0)),
                           beta=np.array([[44.0]]), g=np.ones(1))
        v = VariantId.parse("beta")
        draw_latent(cfg, data, state, v, RngStream(42))
        assert np.isfinite(state.z).all()
        lo = np.where(data.y == 2, 0.0, -np.inf)
        hi = np.where(data.y == 2, np.inf, 0.0)
        assert np.all(state.z >= lo) and np.all(state.z <= hi)
        # The rescue path's draws, recorded at commit 3ca67cb.
        assert hashlib.sha256(state.z.tobytes()).hexdigest() == (
            "92e1b05d133d36ee52e1fa4a79c7db72f8ea5aa4993a8c5bb722c614da01a0f8")

    def test_collapsed_cut_window_is_nudged_open(self):
        """The rows either side of the cut-point share one witness value,
        so its window [8, 8] is shut and ``_ensure_open`` widens it by one
        ulp. With sd = sigma_alpha / g = 1 the window sits 8 sd out, on the
        tail sampler's path, and the draw must land in the sliver."""
        cfg = ModelConfig(c=3)
        data = Dataset(x=np.full((4, 1), 0.5), y=np.array([1, 2, 3, 3]), c=3)
        witness = np.array([[-1.0, 8.0, 8.0, 9.0]])
        draws = []
        for _ in range(2):
            state = ChainState(alpha=np.array([[8.0]]),
                               beta=np.array([[0.0]]), g=np.array([10.0]))
            _scan_alpha(cfg, data, state, witness, RngStream(71, "nudge"))
            draws.append(state.alpha[0, 0])
        assert 8.0 <= draws[0] <= np.nextafter(8.0, np.inf)
        assert draws[0] == draws[1]

    def test_shut_cut_window_in_the_bulk_is_drawn(self):
        """A window shut at a witness within 6 sd of the prior mean: the
        one-ulp nudge carries no double mass there (and at 1.264 / sd = 10
        it standardizes to an empty window), so the batch draw raises and
        the sweep falls back to the elementwise extended-precision path.
        The fourth chain's window is open."""
        cfg = ModelConfig(c=3)
        data = Dataset(x=np.full((4, 1), 0.5), y=np.array([1, 2, 3, 3]), c=3)
        shut = (1.0, 0.5, 1.264)
        witness = np.array([[-1.0, w, w, 2.0] for w in shut]
                           + [[-1.0, 0.5, 1.5, 2.0]])
        draws = []
        for _ in range(2):
            state = ChainState(alpha=np.ones((4, 1)), beta=np.zeros((4, 1)),
                               g=np.ones(4))
            _scan_alpha(cfg, data, state, witness, RngStream(72, "shut"))
            draws.append(state.alpha[:, 0])
        for w, a in zip(shut, draws[0]):
            assert w <= a <= np.nextafter(w, np.inf)
        assert 0.5 <= draws[0][3] <= 1.5
        assert np.array_equal(draws[0], draws[1])

    def test_shut_slope_window_in_the_bulk_is_drawn(self):
        """The null slope sweep meets the same shut window: both rows have
        x = 0.5 and latent z, so b must equal 2z, within 1 sd of the prior
        mean (sd = sigma_beta = 10)."""
        cfg = ModelConfig(c=2)
        data = Dataset(x=np.full((2, 1), 0.5), y=np.array([1, 2]), c=2)
        for z in (0.25, 0.5, 1.0):
            state = ChainState(alpha=np.zeros((1, 0)), beta=np.array([[0.0]]),
                               g=np.ones(1), z=np.full((1, 2), z))
            _scan_beta_null(cfg, data, state, RngStream(73, "shut"))
            assert 2 * z <= state.beta[0, 0] <= np.nextafter(2 * z, np.inf)


# sha256 of the alpha, beta and g bytes of 50-step run_chain traces. Keys
# are (variant, c, batch); "gap" marks a c = 4 dataset whose category 3 is
# empty, so one cut-point has no rows above it and one none below it.
_TRACE_DIGESTS = {
    ("binary-null", 2, 1):
        "81a1f21abbc8d04ff7a2ed3897021e670b6bb73107cdbebbea91f3cedc2e7f64",
    ("binary-null", 2, 3):
        "a08f6c28a390d7c6df9084e8fb6e3beb749ff125ea23d0a44cef4b55d4bb5c5e",
    ("binary-beta", 2, 1):
        "420e0a0daa3463bdb62aae493254dbf810a447832aeb43b6d3635de6e6ae9c0d",
    ("binary-beta", 2, 3):
        "383c333177efe87671ddbe09eb6e3e25e8b72d9b3d82a1d7dcf130bdf315aa3f",
    ("null", 2, 1):
        "39ae868efdff90e65a190ebdfaceb28e93eb7a84c7161e190c7b60b1ec06fb87",
    ("null", 2, 3):
        "f9eeeb5a17dfef4a52de71d0c9dddfef412ded71cd21d9779d0429a0c75bf9b1",
    ("beta", 2, 1):
        "1767e18fa0871b0320d36ba40ddbd93e900185c5b3529de6269b2ce7dc2930fe",
    ("beta", 2, 3):
        "18b2be647204f2d08959252c502e2a897acbf566a3a405b8c05adbcec390f36d",
    ("null-ma", 2, 1):
        "600d95821a9dea64eaad40b48e6db2262e2c6da95438cd5e5915baf6326ee9a2",
    ("null-ma", 2, 3):
        "b1f693441a3f7b7cb7d9fc26af8af953d97d015796e7ebec8d518cdec681541d",
    ("beta-ma", 2, 1):
        "542cc8aa3268b8227f3cc64e8596e5c5f6d8b75ef0413e1160badd82787e9b70",
    ("beta-ma", 2, 3):
        "1a4011003671de1a929f90c2a0d768df6ab3d34989d1256e9df4b00bd94b6323",
    ("null", 3, 1):
        "2522d98e66b094ac101c58200b6bffef2122015c0f633b79af92ca2cb74948a9",
    ("null", 3, 3):
        "4dab5a9923542a0636fc6a4baf8eef975985d638e4b6ab56efd7e49798f42752",
    ("beta", 3, 1):
        "8e26d71fabcce00ec2ddf45dc5db0a5fd4af548fbc962afea45bce39fcc02e36",
    ("beta", 3, 3):
        "91a9a6e692de28a19bb0060d77f8cb4b6dfdd2c355fe816f4c4ee14515471d55",
    ("null-ma", 3, 1):
        "f579af99b1d19b586b976456d650440e3798f9bdaeb13256e53182b963faffe4",
    ("null-ma", 3, 3):
        "2a05d4a84a07623f60b6e9b5fee71f0aefc7207796b95d6ccdd50818453eb73e",
    ("beta-ma", 3, 1):
        "b67179bfb61a8f4d574105fa828f603aa7a83470aaffb163168fa93028539796",
    ("beta-ma", 3, 3):
        "354b008bf011d0232e3292f6a495b849ba3ff6dd90f8faf66bb60d8101bc6623",
    ("null", "gap", 1):
        "8f5c044e7e8980d1b177350936f754e63d0780da303c0e7a0d64b41cdf6bcca7",
    ("null", "gap", 3):
        "b3112732201db574860b08cad436fb2a17bc509528362c6866eeb2430141335b",
    ("beta-ma", "gap", 1):
        "5948032e56784686afd25084e6fca2d9caf0186ae97e4fae5889453d67f58e22",
    ("beta-ma", "gap", 3):
        "7109b98776360d8dedbf32cbe0c63cd43ee6480a1282f0fcade30bbd986f11dc",
}

_DIGEST_THETA = {
    2: Theta(alpha=(), beta=(1.5,)),
    3: Theta(alpha=(0.8,), beta=(1.0, -0.5)),
    "gap": Theta(alpha=(0.7, 1.4), beta=(1.0,)),
}


def _trace_digest(variant, c, batch):
    theta = _DIGEST_THETA[c]
    cfg = ModelConfig(c=theta.alpha.size + 2,
                      covariates=CovariateSpec(p=theta.beta.size))
    data = sample_dataset(cfg, theta, 40, seed=61)
    if c == "gap":
        data = Dataset(x=data.x, y=np.where(data.y == 3, 2, data.y), c=cfg.c)
    # One chain starts at theta, an augmented one at scale g = 1.3; a batch
    # of three starts from prior draws, which puts early latent and
    # cut-point windows in the far tails.
    g = 1.3 if VariantId.parse(variant).augmented else 1.0
    init = {"state": ChainState(alpha=[theta.alpha], beta=[theta.beta], g=g)
            } if batch == 1 else {"init": "prior"}
    trace = run_chain(cfg, data, variant, 50, RngStream(62, variant, batch),
                      batch=batch, **init)
    digest = hashlib.sha256()
    for arr in (trace.alpha, trace.beta, trace.g):
        digest.update(arr.tobytes())
    return digest.hexdigest()


class TestTraceBytes:
    @pytest.mark.parametrize("key", list(_TRACE_DIGESTS),
                             ids=lambda key: "-".join(map(str, key)))
    def test_traces_match_recorded_digests(self, key):
        """The draws of every kernel are pinned bit for bit.

        The digests were recorded at commit 3ca67cb, before the batch-1
        sweep was made lean (factor cached per dataset, direct LAPACK
        solves, whole-array bulk truncated-normal path); a change that
        alters any draw, its order or its arithmetic changes them. The
        binary variants run at c = 2 only, where they are defined.
        """
        assert _trace_digest(*key) == _TRACE_DIGESTS[key]


class _PinnedUniforms:
    """A generator that passes every draw through to ``gen``, except that
    the first block of ``n`` uniforms has the positions in ``pins``
    replaced: a way to put latents exactly on their window's edges."""

    def __init__(self, gen, n, pins):
        self._gen, self._n, self._pins = gen, n, dict(pins)

    def random(self, size=None):
        out = self._gen.random(size)
        if size == self._n and self._pins:
            for i, v in self._pins.items():
                out[i] = v
            self._pins = {}
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _oracle(mean, sd, lo, hi, rng):
    """``truncated_normal_vec`` by the frozen reference; ``mean`` None is
    0.0."""
    return _oracle_truncated_normal_vec(0.0 if mean is None else mean, sd,
                                        lo, hi, rng)


def _generic_sweep(cfg, data, state, variant, rng):
    """The sweep ``kernel_step`` runs for a batch of several chains, with
    every window drawn by the frozen reference
    ``_oracle_truncated_normal_vec``, which shares no code with the
    one-chain sweep's array and float draws."""
    with mock.patch.object(kernels, "truncated_normal_vec", _oracle):
        draw_latent(cfg, data, state, variant, rng)
        update_g(cfg, data, state, variant, rng)
        if variant.parameterization == "null":
            update_theta_null(cfg, data, state, rng)
        else:
            update_theta_beta(cfg, data, state, rng)


def _stream_state(rng):
    gen = getattr(rng.generator, "_gen", rng.generator)
    return json.dumps(gen.bit_generator.state, sort_keys=True,
                      default=lambda v: np.asarray(v).tolist())


def _run_both(cfg, data, variant, alpha, beta, g, *, seed=81, sweeps=1,
              pins=None):
    """Run ``_sweep_one`` and the generic sweep from equal states on equal
    streams; return each side's final state bytes and stream state."""
    variant = VariantId.parse(variant)
    out = []
    for sweep in (_sweep_one, _generic_sweep):
        state = ChainState(alpha=[alpha], beta=[beta], g=g)
        rng = RngStream(seed, variant.name)
        if pins:
            rng._gen = _PinnedUniforms(rng.generator, data.n, pins)
        for _ in range(sweeps):
            sweep(cfg, data, state, variant, rng)
        out.append(([a.tobytes() for a in (state.alpha, state.beta, state.g,
                                            state.z)], _stream_state(rng),
                    state))
    return out


class TestOneChainSweep:
    """``_sweep_one`` against the generic sweep, from equal states: every
    byte of the state and the Philox stream state must agree."""

    def test_float_max_min_follow_numpy(self):
        """The window bounds' float max and min keep np.maximum's and
        np.minimum's rules: NaN propagates, a tie of signed zeros takes
        the second operand."""
        vals = [-0.0, 0.0, np.nan, 1.0, -1.0, np.inf, -np.inf]
        for a in vals:
            for b in vals:
                for mine, ufunc in ((kernels._fmax, np.maximum),
                                    (kernels._fmin, np.minimum)):
                    want = ufunc(np.array([a]), np.array([b]))
                    assert np.array([mine(a, b)]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant, c", [
        ("binary-null", 2), ("binary-beta", 2), ("null", 3), ("beta", 3),
        ("null-ma", 3), ("beta-ma", 3), ("null", "gap"), ("beta", "gap"),
        ("null-ma", "gap"), ("beta-ma", "gap")])
    @pytest.mark.parametrize("g", [1.0, 1.3])
    def test_sweeps_match_generic(self, variant, c, g):
        theta = _DIGEST_THETA[c]
        cfg = ModelConfig(c=theta.alpha.size + 2,
                          covariates=CovariateSpec(p=theta.beta.size))
        data = sample_dataset(cfg, theta, 40, seed=61)
        if c == "gap":  # category 3 empty
            data = Dataset(x=data.x, y=np.where(data.y == 3, 2, data.y),
                           c=cfg.c)
        one, generic = _run_both(cfg, data, variant, theta.alpha, theta.beta,
                                 g, sweeps=25)
        assert one[:2] == generic[:2]

    @pytest.mark.parametrize("variant", ["binary-beta", "binary-null"])
    def test_tail_latent_falls_back_before_any_uniform(self, variant,
                                                       monkeypatch):
        """Latent windows 40+ sd out, whose mass underflows: the one-chain
        sweep's (n,) latent block reaches ``truncated_normal_vec`` with the
        stream as it found it, and the rescue draws what the reference
        sweep draws."""
        cfg = ModelConfig(c=2)
        x = np.concatenate([np.linspace(0.05, 0.6, 36),
                            [0.93, 0.96, 0.99, 1.0]])
        data = Dataset(x=x[:, None], y=np.where(x > 0.5, 2, 1), c=2)
        seen = []
        real = kernels.truncated_normal_vec

        def watched(mean, sd, lo, hi, rng):
            if np.shape(lo) == (data.n,):
                seen.append(_stream_state(rng))
            return real(mean, sd, lo, hi, rng)

        monkeypatch.setattr(kernels, "truncated_normal_vec", watched)
        fresh = _stream_state(RngStream(81, variant))
        one, generic = _run_both(cfg, data, variant, (), (44.0,), 1.0)
        assert one[:2] == generic[:2]
        assert seen == [fresh]

    def test_shut_cut_point_window(self, monkeypatch):
        """Uniforms pinned so the y = 2 and y = 3 latents both land on the
        cut-point 1.264: its window is shut, ``_ensure_open`` widens it by
        one ulp, which holds no double mass at sd = 10, and the draw goes
        to the extended-precision path on both sides."""
        extended = []
        real = kernels.truncated_normal_extended
        monkeypatch.setattr(kernels, "truncated_normal_extended",
                            lambda *a: extended.append(a) or real(*a))
        cfg = ModelConfig(c=3)
        data = Dataset(x=np.full((4, 1), 0.5), y=np.array([1, 2, 3, 3]), c=3)
        one, generic = _run_both(cfg, data, "beta", (1.264,), (0.0,), 1.0,
                                 pins={1: 1.2, 2: 1.2})
        assert one[:2] == generic[:2]
        assert one[2].z[0, 1] == one[2].z[0, 2] == 1.264
        assert len(extended) == 2

    def test_shut_slope_window(self, monkeypatch):
        """Both null latents pinned to b'x = 0.25 with x = 0.5: the slope
        window is [0.5, 0.5], shut, and drawn by the extended path."""
        extended = []
        real = kernels.truncated_normal_extended
        monkeypatch.setattr(kernels, "truncated_normal_extended",
                            lambda *a: extended.append(a) or real(*a))
        cfg = ModelConfig(c=2)
        data = Dataset(x=np.full((2, 1), 0.5), y=np.array([1, 2]), c=2)
        one, generic = _run_both(cfg, data, "binary-null", (), (0.5,), 1.0,
                                 pins={0: 1.2, 1: 1.2})
        assert one[:2] == generic[:2]
        assert np.array_equal(one[2].z, [[0.25, 0.25]])
        assert len(extended) == 2

    def test_signed_zero_latent_in_null_path(self):
        """A standardised draw of -0.0: the window's lower end b'x is the
        least subnormal, which standardises to -0.0 at sd = 1 / 0.3, and a
        pinned uniform of 0 puts ndtri(0.5) = 0.0 on it. ``0.0 + sd * z``
        turns the -0.0 into +0.0, and the latent keeps it."""
        cfg = ModelConfig(c=2)
        data = Dataset(x=np.array([[0.6], [0.7], [0.2]]), y=np.array([2, 2, 1]),
                       c=2)
        one, generic = _run_both(cfg, data, "binary-null", (), (-1e-323,), 0.3,
                                 pins={0: 0.0})
        assert one[:2] == generic[:2]
        z0 = generic[2].z[0, 0]
        assert z0 == 0.0 and not np.signbit(z0)

    def test_draw_outside_window_raises(self):
        """A pinned uniform past 1 makes ndtri NaN, which no clamp puts
        back in the window: both sweeps raise SamplingError."""
        cfg = ModelConfig(c=2)
        data = Dataset(x=np.full((2, 1), 0.5), y=np.array([1, 2]), c=2)
        for sweep in (_sweep_one, _generic_sweep):
            rng = RngStream(81, "outside")
            rng._gen = _PinnedUniforms(rng.generator, 2, {0: 5.0})
            state = ChainState(alpha=[()], beta=[(0.5,)], g=1.0)
            with pytest.raises(SamplingError):
                sweep(cfg, data, state, VariantId.parse("binary-null"), rng)


def _oracle_path(mean, sd, lo, hi, rng):
    """``_draw_window`` on the frozen reference: the oracle, then
    ``_draw_careful`` with its elementwise draws by the oracle too. Returns
    the draw's bytes, or the exception's type, with the stream state."""
    def draw(mean, sd, lo, hi, rng):
        try:
            return _oracle(mean, sd, lo, hi, rng)
        except DegenerateIntervalError:
            return kernels._draw_careful(0.0 if mean is None else mean, sd,
                                         lo, hi, rng)

    with mock.patch.object(kernels, "truncated_normal_vec", _oracle):
        return _outcome(draw, mean, sd, lo, hi, rng)


def _outcome(draw, *args):
    """What ``draw(*args)`` returns, as bytes, or the type of what it
    raises, with the state of the stream, its last argument."""
    try:
        out = draw(*args).tobytes()
    except (ValueError, RuntimeError) as exc:
        out = type(exc)
    return out, _stream_state(args[-1])


def _cut_point_windows(batch=144):
    """(batch,) windows of the kind the cut-point scan draws: from zero or
    a positive witness to a larger one or +inf, with a (batch,) sd."""
    gen = np.random.default_rng(7)
    lo = np.where(gen.random(batch) < 0.2, 0.0, gen.exponential(1.5, batch))
    hi = lo + gen.exponential(2.0, batch)
    hi[gen.random(batch) < 0.2] = np.inf
    return lo, hi, SIGMA_ALPHA / np.linspace(0.5, 2.0, batch)


class TestBulkWindows:
    """``truncated_normal_vec`` on the sweeps' windows, in place, against
    the frozen reference ``_oracle_truncated_normal_vec``: every byte, or
    the exception's type, and the Philox stream state must agree."""

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("parameterization", ["null", "beta"])
    @pytest.mark.parametrize("unit_sd", [True, False])
    def test_latent_windows_match_array_path(self, c, parameterization,
                                             unit_sd):
        theta = _DIGEST_THETA["gap" if c == 4 else c]
        cfg = ModelConfig(c=c, covariates=CovariateSpec(p=theta.beta.size))
        data = sample_dataset(cfg, theta, 100, seed=63)
        gen = np.random.default_rng(c)
        batch = 144
        g = np.ones(batch) if unit_sd else np.linspace(0.6, 1.6, batch)
        state = ChainState(
            alpha=theta.alpha * np.exp(0.05 * gen.standard_normal(
                (batch, c - 2))),
            beta=theta.beta + 0.1 * gen.standard_normal((batch, cfg.p)),
            g=g)
        null = parameterization == "null"
        bx = state.beta @ data.x.T
        lo, hi = kernels._latent_windows(state.alpha,
                                         kernels._prepared(cfg, data), data,
                                         bx if null else None)
        assert lo.shape == (batch, data.n)
        mean, sd = (None if null else -bx), (1.0 / g)[:, None]
        got = _outcome(truncated_normal_vec, mean, sd, lo, hi,
                       RngStream(64, c, parameterization))
        assert got == _outcome(_oracle, mean, sd, lo, hi,
                               RngStream(64, c, parameterization))
        assert isinstance(got[0], bytes)

    @pytest.mark.parametrize("ulps", [False, True])
    def test_cut_point_windows_match_array_path(self, ulps):
        """With ``ulps``, windows 1 to 8 ulps wide 5.5 sd below the mean,
        where un-standardising can round past an end: the final clamp
        decides those bits."""
        lo, hi, sd = _cut_point_windows()
        if ulps:
            lo = -5.5 * sd
            hi = lo + (1 + np.arange(lo.size) % 8) * np.spacing(-lo)
        got = _outcome(truncated_normal_vec, None, sd, lo, hi, RngStream(65))
        assert got == _outcome(_oracle, None, sd, lo, hi, RngStream(65))
        assert isinstance(got[0], bytes)

    @pytest.mark.parametrize("case", ["tail", "underflow", "shut", "no-window",
                                      "zero-sd", "negative-sd", "nan-sd",
                                      "zero-float-sd", "nan-float-sd"])
    def test_refusals_draw_nothing(self, case):
        """One window past 6 sd, one without double mass, one shut, none at
        all, or an sd that is not positive: ``truncated_normal_vec`` draws
        or raises as the reference does, and a raise draws no uniform.
        ``_draw_window`` then draws what the reference and the rescue on
        it draw."""
        lo, hi, sd = _cut_point_windows()
        if case == "tail":
            lo[5], hi[5] = 7.0 * sd[5], np.inf
        elif case == "underflow":
            hi[5] = np.nextafter(lo[5], np.inf)
        elif case == "shut":
            hi[5] = lo[5]
        elif case == "no-window":
            lo, hi, sd = lo[:0], hi[:0], sd[:0]
        elif case.endswith("float-sd"):
            lo[5], hi[5] = -1.0, 1.0     # open at sd = 0: only sd refuses
            sd = 0.0 if case.startswith("zero") else np.nan
        else:
            lo[5], hi[5] = -1.0, 1.0
            sd[5] = {"zero-sd": 0.0, "negative-sd": -1.0,
                     "nan-sd": np.nan}[case]
        fresh = _stream_state(RngStream(66, case))
        got = _outcome(truncated_normal_vec, None, sd, lo, hi,
                       RngStream(66, case))
        assert got == _outcome(_oracle, None, sd, lo, hi, RngStream(66, case))
        assert (got[1] == fresh) == (case != "tail")
        if case == "underflow":
            mass = norm.cdf(hi[5] / sd[5]) - norm.cdf(lo[5] / sd[5])
            assert mass < MASS_FLOOR
        assert _outcome(kernels._draw_window, None, sd, lo, hi,
                        RngStream(66, case)) == _oracle_path(
            None, sd, lo, hi, RngStream(66, case))
