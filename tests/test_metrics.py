"""Distance machinery, degeneracy statistics, and the table classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, sparse, spatial
from scipy.integrate import quad
from scipy.stats import norm, wasserstein_distance

from mcmcdegen.kernels import apply_transform
from mcmcdegen.metrics import (
    DiagnosticsReport,
    bl_distance,
    central_value,
    classify_table1,
    estimate_R,
    estimate_Rprime,
    ground_metric,
    one_step_statistic,
    table1_transform,
    wprime_from_series,
    _cluster_se,
)
from mcmcdegen.model import ModelConfig, Theta


def lag1_autocorr(series: np.ndarray) -> float:
    """Lag-one autocorrelation of a scalar series (criterion 3(c))."""
    s = np.asarray(series, dtype=float).reshape(-1)
    s = s - s.mean()
    denom = float(np.dot(s, s))
    if denom == 0.0:
        return 1.0
    return float(np.dot(s[1:], s[:-1]) / denom)


def _bl_linear_program(u, v, scale):
    """The dual LP: max sum_k a_k f_k over potentials f on the pooled support
    with |f_k| <= 1 and |f_k - f_l| <= d(x_k, x_l), where a carries the
    signed uniform weights of the two clouds. It has O(k^2) rows, so it
    serves only as the oracle for the assignment solver."""
    pts = np.concatenate([u, v], axis=0)
    a = np.concatenate([np.full(len(u), 1.0 / len(u)),
                        np.full(len(v), -1.0 / len(v))])
    pts, inv = np.unique(pts, axis=0, return_inverse=True)
    signed = np.zeros(pts.shape[0])
    np.add.at(signed, inv.reshape(-1), a)
    k = pts.shape[0]
    if k == 1:
        return 0.0
    dist = np.minimum(scale * spatial.distance.cdist(pts, pts), 1.0)
    ii, jj = np.triu_indices(k, 1)
    pair = sparse.identity(k, format="csr")
    pair = pair[ii] - pair[jj]  # one row f_i - f_j per pair i < j
    res = optimize.linprog(
        c=-signed, A_ub=sparse.vstack([pair, -pair]),
        b_ub=np.tile(dist[ii, jj], 2), bounds=(-1.0, 1.0), method="highs",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return max(-res.fun, 0.0)


class TestTransforms:
    def test_named_functionals(self):
        alpha = np.array([[1.0, 3.0]])
        beta = np.array([[-2.0]])
        g = np.array([0.5])
        assert np.array_equal(apply_transform(alpha, beta, g, "theta"),
                              [[1.0, 3.0, -2.0]])
        assert np.array_equal(apply_transform(alpha, beta, g, "g-theta"),
                              [[0.5, 1.5, -1.0]])
        assert np.array_equal(apply_transform(alpha, beta, g, "alpha"),
                              [[1.0, 3.0]])
        assert np.array_equal(apply_transform(alpha, beta, g, "alpha-ratio"),
                              [[3.0]])

    def test_transform_errors(self):
        empty = np.zeros((1, 0))
        beta = np.array([[1.0]])
        g = np.ones(1)
        with pytest.raises(ValueError):
            apply_transform(empty, beta, g, "alpha")
        with pytest.raises(ValueError):
            apply_transform(np.array([[1.0]]), beta, g, "alpha-ratio")
        with pytest.raises(ValueError):
            apply_transform(empty, beta, g, "huh")

    @pytest.mark.parametrize("name", ["theta", "g-theta", "alpha",
                                      "alpha-ratio"])
    def test_recorded_blocks_match_per_record(self, name):
        """On (records, B, dim) blocks each record equals the transform of
        its own (B, dim) slice, bit for bit."""
        gen = np.random.default_rng(5)
        alpha = np.sort(gen.uniform(0.1, 3.0, (4, 3, 2)), axis=-1)
        beta = gen.normal(size=(4, 3, 1))
        g = gen.uniform(0.5, 2.0, (4, 3))
        whole = apply_transform(alpha, beta, g, name)
        for t in range(4):
            assert np.array_equal(
                whole[t], apply_transform(alpha[t], beta[t], g[t], name))

    def test_witness_map(self):
        expect = {
            ("null", 2): "theta", ("null", 3): "theta", ("null", 4): "theta",
            ("null-ma", 2): "g-theta", ("null-ma", 3): "theta",
            ("null-ma", 4): "theta",
            ("beta", 2): "theta", ("beta", 3): "alpha", ("beta", 4): "alpha",
            ("beta-ma", 2): "g-theta", ("beta-ma", 3): "g-theta",
            ("beta-ma", 4): "alpha-ratio",
        }
        for (name, c), want in expect.items():
            assert table1_transform(name, c) == want


class TestGroundMetric:
    def test_scalar_and_rows(self):
        assert ground_metric([0.0, 0.0], [0.3, 0.4]) == 0.5
        assert ground_metric([0.0], [5.0]) == 1.0
        got = ground_metric(np.zeros((2, 1)), np.array([[0.2], [9.0]]),
                            scale=2.0)
        assert np.array_equal(got, [0.4, 1.0])


class TestBLDistance:
    def test_point_mass_identity(self):
        """Against k copies of one point the distance is the mean ground
        metric."""
        gen = np.random.default_rng(5)
        for _ in range(100):
            dim = int(gen.integers(1, 4))
            k = int(gen.integers(2, 12))
            x = gen.normal(size=dim)
            pts = gen.normal(size=(k, dim))
            want = float(np.mean(ground_metric(pts, x[None, :])))
            got = bl_distance(np.tile(x, (k, 1)), pts)
            assert abs(float(got) - want) < 1e-9

    def test_matches_wasserstein_small_diameter(self):
        """With every pairwise gap under the cap, the value is plain W1."""
        gen = np.random.default_rng(6)
        for _ in range(20):
            k = int(gen.integers(2, 9))
            u = gen.random(k) * 0.9
            v = gen.random(k) * 0.9
            got = bl_distance(u[:, None], v[:, None])
            assert abs(float(got) - wasserstein_distance(u, v)) < 1e-9

    def test_dirac_pair(self):
        a = [[0.0, 0.0]]
        assert abs(float(bl_distance(a, [[0.3, 0.4]])) - 0.5) < 1e-12
        assert abs(float(bl_distance(a, [[40.0, 0.0]])) - 1.0) < 1e-12

    def test_identical_and_symmetry(self):
        gen = np.random.default_rng(7)
        a = gen.normal(size=(6, 2))
        b = gen.normal(size=(6, 2))
        assert float(bl_distance(a, a)) < 1e-10
        assert abs(float(bl_distance(a, b)) - float(bl_distance(b, a))) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            bl_distance([[0.0]], [[0.0, 1.0]])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_never_exceeds_one(self, seed):
        gen = np.random.default_rng(seed)
        v = float(bl_distance(gen.normal(scale=5, size=(4, 2)),
                              gen.normal(scale=5, size=(4, 2))))
        assert -1e-12 <= v <= 1.0 + 1e-9

    def test_solver_follows_the_input(self):
        """Two equal-size clouds go to the assignment solver; unequal sizes
        and empty clouds are refused."""
        gen = np.random.default_rng(10)
        a = gen.normal(size=(5, 2))
        b = gen.normal(size=(5, 2))
        uniform = bl_distance(a, b)
        assert uniform.solver == "assignment" and uniform.support == 10
        assert uniform.resampled is False
        with pytest.raises(ValueError, match="equal size"):
            bl_distance(a, b[:4])
        with pytest.raises(ValueError, match="nonempty"):
            bl_distance(np.empty((0, 2)), np.empty((0, 2)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 3),
           st.floats(0.2, 30.0), st.sampled_from(["fresh", "duplicated",
                                                  "identical"]))
    @settings(max_examples=60, deadline=None)
    def test_assignment_equals_linear_program(self, seed, k, dim, scale,
                                              kind):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(k, dim))
        b = gen.normal(loc=0.2, size=(k, dim))
        if kind == "duplicated":
            # frozen chain states: long runs of one row, one shared row
            a[gen.integers(k, size=k // 2)] = a[0]
            b[gen.integers(k, size=k // 3)] = b[-1]
            b[0] = a[0]
        elif kind == "identical":
            b = a[gen.permutation(k)]
        got = bl_distance(a, b, scale=scale)
        assert got.solver == "assignment"
        assert abs(float(got) - _bl_linear_program(a, b, scale)) <= 1e-12
        if kind == "identical":
            assert float(got) == 0.0

    def test_large_equal_support_is_exact(self):
        """300 + 300 points are matched whole, with no subsampling; a 150 +
        150 slice agrees with the linear program."""
        gen = np.random.default_rng(8)
        a = gen.normal(size=(300, 1))
        b = gen.normal(loc=0.4, size=(300, 1))
        v1 = bl_distance(a, b)
        v2 = bl_distance(a, b)
        assert v1.solver == "assignment" and v1.support == 600
        assert not v1.resampled
        assert float(v1) == float(v2)
        # at scale 0.1 no pairwise gap reaches the cap: plain 1-D W1
        assert np.ptp(np.concatenate([a, b])) < 10.0
        assert abs(float(bl_distance(a, b, scale=0.1))
                   - 0.1 * wasserstein_distance(a[:, 0], b[:, 0])) < 1e-12
        assert abs(float(bl_distance(a[:150], b[:150]))
                   - _bl_linear_program(a[:150], b[:150], 1.0)) <= 1e-12


class TestCentralValue:
    def test_residual_and_equivariance(self):
        gen = np.random.default_rng(11)
        pts = gen.normal(size=(40, 3)) * [1.0, 0.2, 5.0]
        t = central_value(pts)
        for d in range(3):
            resid = np.mean(np.arctan(pts[:, d] - t[d]))
            assert abs(resid) < 1e-10
        shift = np.array([2.0, -1.0, 0.25])
        t2 = central_value(pts + shift)
        assert np.max(np.abs(t2 - (t + shift))) < 1e-9

    def test_permutation_and_weights(self):
        gen = np.random.default_rng(12)
        pts = gen.normal(size=(15, 1))
        assert np.allclose(central_value(pts), central_value(pts[::-1]),
                           atol=1e-9)
        # listing a point twice doubles its weight in the root equation
        w = np.full(15, 1.0)
        w[3] = 2.0
        w /= w.sum()
        doubled = central_value(np.vstack([pts, pts[3:4]]))
        assert abs(np.sum(w * np.arctan(pts[:, 0] - doubled[0]))) < 1e-10

    def test_single_point(self):
        assert np.array_equal(central_value([[1.25, -3.0]]), [1.25, -3.0])
        # a flat array is one point, not a column
        assert np.array_equal(central_value([1.25, -3.0]), [1.25, -3.0])


class TestWprime:
    def test_constant_chain_is_zero(self):
        series = np.ones((10, 2))
        assert wprime_from_series(series) == 0.0

    def test_manual_value_and_cap(self):
        series = np.array([[0.0], [0.3], [5.0]])
        assert abs(wprime_from_series(series) - (0.3 + 1.0) / 2) < 1e-12
        assert abs(wprime_from_series(series, scale=10.0) - 1.0) < 1e-12

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            wprime_from_series(np.ones((1, 2)))


class TestPairsOracle:
    def test_elementwise(self):
        p0 = np.array([[0.0, 0.0], [1.0, 1.0]])
        p1 = np.array([[0.3, 0.4], [9.0, 9.0]])
        assert np.array_equal(ground_metric(p1, p0, 2.0), [1.0, 1.0])
        assert np.array_equal(ground_metric(p1, p0, 1.0), [0.5, 1.0])

    def test_iid_pair_mean_matches_quadrature(self):
        """E min(s|Z - Z'|, 1) for iid normals against direct integration."""
        sigma, s = 0.3, 2.0
        tau = sigma * np.sqrt(2.0)

        def f(w):
            return min(s * w, 1.0) * 2.0 * norm.pdf(w, scale=tau)

        want = quad(f, 0.0, 1.0 / s)[0] + quad(f, 1.0 / s, np.inf)[0]
        gen = np.random.default_rng(13)
        z0 = gen.normal(scale=sigma, size=(200_000, 1))
        z1 = gen.normal(scale=sigma, size=(200_000, 1))
        vals = ground_metric(z1, z0, s)
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - want) < 5 * se


class TestClusterSE:
    def test_hand_computed(self):
        got = _cluster_se([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        assert got["value"] == 2.5
        assert abs(got["se"] - 1.0) < 1e-12

    def test_single_cluster_falls_back(self):
        got = _cluster_se([1.0, 2.0, 3.0], [7, 7, 7])
        iid = np.std([1.0, 2.0, 3.0], ddof=1) / np.sqrt(3)
        assert abs(got["se"] - iid) < 1e-12


class TestDiagnosticsReport:
    def _report(self):
        return DiagnosticsReport(
            variant="null", n=100, m=8, replications=4,
            estimates={"D": {"value": 0.5, "se": 0.01}},
            metadata={"transform": "theta"})

    def test_accessors_and_roundtrip(self, tmp_path):
        rep = self._report()
        assert rep.value("D") == 0.5 and rep.se("D") == 0.01
        path = tmp_path / "rep.json"
        rep.save(path)
        back = DiagnosticsReport.load(path)
        assert back == rep

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagnosticsReport(variant="x", n=1, m=1, replications=1,
                              estimates={})
        with pytest.raises(ValueError):
            DiagnosticsReport(variant="x", n=1, m=1, replications=2,
                              estimates={"D": {"value": 1.0}})


def _rep(value, se, n):
    return DiagnosticsReport(
        variant="cell", n=n, m=8, replications=2,
        estimates={"D": {"value": value, "se": se}})


class TestClassifier:
    def test_degenerate_label(self):
        cell = {n: _rep(v, 0.002, n)
                for n, v in zip((100, 400, 1600), (0.8, 0.4, 0.1))}
        out = classify_table1({"k": cell})["k"]
        assert out["label"] == "X"
        assert out["D"][400] == 0.4
        assert abs(out["ratio"] - 0.125) < 1e-12

    def test_moving_label(self):
        cell = {n: _rep(v, 0.002, n)
                for n, v in zip((100, 400, 1600), (0.80, 0.82, 0.78))}
        assert classify_table1({"k": cell})["k"]["label"] == "O"

    def test_inconclusive_label(self):
        # decreasing but shallow and noisy: fails both certificates
        cell = {n: _rep(v, 0.2, n)
                for n, v in zip((100, 400, 1600), (0.8, 0.5, 0.45))}
        assert classify_table1({"k": cell})["k"]["label"] == "inconclusive"

    def test_noise_blocks_degenerate(self):
        cell = {n: _rep(v, 0.08, n)
                for n, v in zip((100, 400, 1600), (0.8, 0.4, 0.2))}
        assert classify_table1({"k": cell})["k"]["label"] == "inconclusive"

    def test_missing_grid_point(self):
        cell = {100: _rep(0.8, 0.01, 100), 400: _rep(0.4, 0.01, 400)}
        with pytest.raises(ValueError):
            classify_table1({"k": cell})


class TestRiskEstimators:
    def test_rprime_report_shape(self):
        cfg = ModelConfig(c=2)
        rep = estimate_Rprime("binary-beta", cfg, n=50, m=6, R=3,
                              master_seed=21, theta0=Theta((), (2.0,)),
                              start="fixed", theta_start=Theta((), (1.5,)))
        assert set(rep.estimates) == {"Rprime", "Rprime_localized"}
        assert 0.0 <= rep.value("Rprime") <= 1.0
        assert rep.metadata["start"] == "fixed"
        with pytest.raises(ValueError):
            estimate_Rprime("binary-beta", cfg, n=50, m=1, R=3,
                            master_seed=21, theta0=Theta((), (2.0,)))

    def test_rprime_refuses_unknown_start_before_any_work(self,
                                                          monkeypatch):
        import mcmcdegen.metrics as metrics

        def no_data(*args, **kwargs):
            raise AssertionError("a dataset was drawn")

        monkeypatch.setattr(metrics, "sample_dataset", no_data)
        with pytest.raises(ValueError, match="'fixed' or "
                                             "'reference-posterior'"):
            estimate_Rprime("binary-beta", ModelConfig(c=2), n=50, m=6, R=2,
                            master_seed=21, theta0=Theta((), (2.0,)),
                            start="prior")

    def test_rprime_deterministic(self):
        cfg = ModelConfig(c=2)
        kw = dict(master_seed=22, theta0=Theta((), (2.0,)), start="fixed",
                  theta_start=Theta((), (1.5,)))
        a = estimate_Rprime("binary-null", cfg, n=40, m=5, R=2, **kw)
        b = estimate_Rprime("binary-null", cfg, n=40, m=5, R=2, **kw)
        assert a.estimates == b.estimates

    def test_risk_report_shape(self):
        cfg = ModelConfig(c=2)
        rep = estimate_R("binary-beta", cfg, n=60, m=20, R=2,
                         reference_size=64, master_seed=23,
                         theta0=Theta((), (2.0,)))
        assert set(rep.estimates) == {"R", "R_localized"}
        assert np.asarray(rep.metadata["theta_hat"]).shape == (2, 1)
        assert 0.0 <= rep.value("R_localized") <= 1.0
        assert rep.metadata["bl_solver"] == "assignment"
        assert rep.metadata["bl_support"] == 40

    def test_risk_needs_m_reference_rows(self):
        cfg = ModelConfig(c=2)
        with pytest.raises(ValueError, match="reference_size"):
            estimate_R("binary-beta", cfg, n=60, m=20, R=2,
                       reference_size=19, master_seed=23,
                       theta0=Theta((), (2.0,)))


class TestOneStepStatistic:
    def test_needs_replications(self):
        cfg = ModelConfig(c=2)
        with pytest.raises(ValueError):
            one_step_statistic("null", cfg, 100, 1, "theta", 1,
                               theta0=Theta((), (2.0,)))

    def test_deterministic_and_metadata(self):
        cfg = ModelConfig(c=2)
        kw = dict(theta0=Theta((), (2.0,)), datasets=2, inner=3,
                  bank_size=128, pool=1024)
        a = one_step_statistic("null", cfg, 100, 4, "theta", 31, **kw)
        b = one_step_statistic("null", cfg, 100, 4, "theta", 31, **kw)
        assert a.estimates == b.estimates
        assert a.metadata["datasets"] == 2 and a.metadata["coords"] is None
        assert a.replications == 4

    def test_coordinate_slice_moves_less(self):
        """A sub-vector can't travel farther than the full vector, and the
        chains are stream-identical across the two calls."""
        cfg = ModelConfig(c=3)
        kw = dict(theta0=Theta((1.0,), (-1.0,)), datasets=2, inner=4,
                  bank_size=128, pool=1024)
        full = one_step_statistic("beta", cfg, 100, 4, "theta", 32, **kw)
        part = one_step_statistic("beta", cfg, 100, 4, "theta", 32,
                                  coords=[0], **kw)
        assert part.metadata["coords"] == [0]
        assert part.value("D") <= full.value("D") + 1e-12

    def test_stratified_scales_are_unbiased(self):
        """Stratifying the starting scales must not move the estimand."""
        cfg = ModelConfig(c=2)
        kw = dict(theta0=Theta((), (2.0,)), datasets=3, inner=8,
                  bank_size=256, pool=2048)
        fresh = one_step_statistic("null-ma", cfg, 100, 24, "g-theta", 33,
                                   starts=1, **kw)
        strat = one_step_statistic("null-ma", cfg, 100, 6, "g-theta", 34,
                                   starts=8, **kw)
        gap = abs(fresh.value("D") - strat.value("D"))
        band = 3.0 * np.hypot(fresh.se("D"), strat.se("D"))
        assert gap < band
        assert strat.metadata["starts"] == 8


class TestLagOne:
    def test_known_series(self):
        s = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        assert lag1_autocorr(s) < -0.7
        assert lag1_autocorr(np.ones(5)) == 1.0
        ramp = lag1_autocorr(np.arange(50, dtype=float))
        assert 0.8 < ramp <= 1.0
