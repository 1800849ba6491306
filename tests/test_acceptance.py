"""Acceptance gate: every release criterion, one pass/fail line each.

Each test prints ``ACCEPTANCE <k>: PASS/FAIL — detail`` directly to the
terminal (bypassing capture) before asserting, so the full gate status is
visible in one place regardless of which criteria hold. Budgets are wall
clocks for the whole criterion and are asserted too.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp, norm

from mcmcdegen import cli, harness
from mcmcdegen.asymptotics import (
    build_reference,
    build_reference_sir,
    kernel_normal_approx,
    sir_reference,
)
from mcmcdegen.kernels import VariantId, initial_state, kernel_step, run_chain
from mcmcdegen.metrics import estimate_Rprime, one_step_statistic
from mcmcdegen.model import CovariateSpec, ModelConfig, Theta, sample_dataset
from mcmcdegen.sampling import RngStream
from test_metrics import lag1_autocorr

MASTER = 20_240_817

# ``pytest -m "not acceptance"`` runs the rest of the suite in under a minute.
pytestmark = pytest.mark.acceptance


def _announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)


def _cfg(c, p=1):
    return ModelConfig(c=c, covariates=CovariateSpec(p=p))


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_oracle_suite(capsys):
    """Closed-form constants and distance/central-value/scale oracles."""
    t0 = time.perf_counter()
    checks = cli.run_verify()
    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag, _ in checks) and elapsed < 60
    detail = (f"{sum(f for _, f, _ in checks)}/{len(checks)} oracle checks, "
              f"{elapsed:.1f}s (budget 60s)")
    _announce(capsys, 1, ok, detail)
    for name, flag, info in checks:
        assert flag, f"oracle check {name} failed: {info}"
    assert elapsed < 60


# ---------------------------------------------------------------- criterion 2

def _invariance_cells():
    for name in ("binary-null", "binary-beta"):
        for n in (100, 400):
            yield name, 2, n
    for name in ("null", "beta", "null-ma", "beta-ma"):
        for c in (2, 3, 4):
            for n in (100, 400):
                yield name, c, n


def test_criterion_2_stationarity(capsys):
    """One kernel step preserves every marginal of a posterior start."""
    t0 = time.perf_counter()
    worst = (1.0, None)
    cells = 0
    for name, c, n in _invariance_cells():
        cells += 1
        variant = VariantId.parse(name)
        cfg = _cfg(c)
        theta0 = harness.default_theta0(c)
        root = RngStream(MASTER, "invariance", name, c, n)
        data = sample_dataset(cfg, theta0, n,
                              seed=root.child("data").seed_int())
        bank = build_reference_sir(cfg, data, 2048, root.child("bank"),
                                   pool=8192)
        state = initial_state(cfg, variant, 2000, root.child("start"),
                              init="reference-posterior", reference=bank)
        cols = [state.alpha.copy(), state.beta.copy()]
        if variant.augmented:
            cols.append(state.g[:, None].copy())
        before = np.concatenate(cols, axis=1)
        kernel_step(cfg, data, state, variant, root.child("step"))
        cols = [state.alpha, state.beta]
        if variant.augmented:
            cols.append(state.g[:, None])
        after = np.concatenate(cols, axis=1)
        for j in range(before.shape[1]):
            p = ks_2samp(before[:, j], after[:, j]).pvalue
            if p < worst[0]:
                worst = (p, (name, c, n, j))
    elapsed = time.perf_counter() - t0
    ok = worst[0] > 1e-3 and elapsed < 600
    detail = (f"{cells} cells, min KS p={worst[0]:.3g} at {worst[1]} "
              f"(level 1e-3), {elapsed:.1f}s (budget 600s)")
    _announce(capsys, 2, ok, detail)
    assert worst[0] > 1e-3, detail
    assert elapsed < 600


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_start_anchoring(capsys):
    """Localized start-anchoring contrast between the binary kernels.

    The setting is the paper's: a fixed number of steps m as n grows, from
    a start inside the posterior's sqrt(n) neighbourhood. Each chain starts
    one local unit below theta0 (beta = 2 - 1/sqrt(n)) and takes m = 2
    steps, the fewest ``estimate_Rprime`` accepts. A start displaced by a
    constant, or a long run of steps, would carry the chain many local
    units away, and the localized metric min(sqrt(n)|d|, 1) would sit at
    its cap for both kernels and both sample sizes.

    Clause (a): the truncation-window kernel moves O(1/n) per sweep, so its
    localized R' follows an n^{-1/2} law, a factor sqrt(10) ~ 3.2 from
    n=100 to n=1000 before the cap. The cap pulls the n=100 value down, so
    the measured drop is nearer 2; a 2x certificate with a three-s.e.
    guard would reject a kernel that decays exactly as the law says. The
    clause certifies a 1.5x drop, the factor criterion 5 uses for the same
    n^{-1/2} decay. The paper and the README fix only the direction of the
    contrast, not a factor between these two sample sizes; 1.5 is this
    suite's choice. The latent-shift kernel, which moves on the sqrt(n)
    scale, stays near 1x and fails the same certificate.

    Clause (b): the latent-shift kernel's localized R' keeps its order of
    magnitude. Clause (c): from a distant start at n=1000 the
    truncation-window kernel mixes the slope more slowly (lag-1
    autocorrelation).
    """
    t0 = time.perf_counter()
    cfg = _cfg(2)
    theta0 = Theta((), (2.0,))
    start = Theta((), (1.5,))
    rep = {(v, n): estimate_Rprime(
               v, cfg, n=n, m=2, R=200, master_seed=MASTER, theta0=theta0,
               start="fixed",
               theta_start=Theta((), (2.0 - 1.0 / np.sqrt(n),)))
           for v in ("binary-null", "binary-beta") for n in (100, 1000)}

    def loc(v, n):
        return rep[(v, n)].value("Rprime_localized")

    def loc_se(v, n):
        return rep[(v, n)].se("Rprime_localized")

    # (a) 1.5x drop with a three-s.e. guard, localized scale
    margin_a = loc("binary-null", 100) / 1.5 - loc("binary-null", 1000)
    guard_a = 3.0 * np.hypot(loc_se("binary-null", 100) / 1.5,
                             loc_se("binary-null", 1000))
    clause_a = margin_a > guard_a

    # (b) the latent-shift kernel keeps the same order of magnitude
    ratio_b = loc("binary-beta", 100) / loc("binary-beta", 1000)
    clause_b = 0.5 <= ratio_b <= 2.0

    # (c) slower slope mixing for the truncation-window kernel at n=1000
    data = sample_dataset(cfg, theta0, 1000,
                          seed=RngStream(MASTER, "autocorr",
                                         "data").seed_int())
    acf = {}
    for v in ("binary-null", "binary-beta"):
        trace = run_chain(cfg, data, v, 200,
                          RngStream(MASTER, "autocorr", v), init="fixed",
                          theta=start)
        acf[v] = lag1_autocorr(trace.beta[:, 0, 0])
    clause_c = acf["binary-null"] > acf["binary-beta"]

    elapsed = time.perf_counter() - t0
    ok = clause_a and clause_b and clause_c and elapsed < 120
    detail = (
        f"start theta0-1/sqrt(n), m=2; "
        f"(a) localized null {loc('binary-null', 100):.4f}->"
        f"{loc('binary-null', 1000):.4f} "
        f"({loc('binary-null', 100) / loc('binary-null', 1000):.2f}x), "
        f"1.5x margin {margin_a:.4f} vs guard {guard_a:.4f} "
        f"[{'ok' if clause_a else 'violated'}]; "
        f"(b) beta ratio {ratio_b:.3f} in [0.5,2] "
        f"[{'ok' if clause_b else 'violated'}]; "
        f"(c) lag-1 acf null {acf['binary-null']:.3f} > beta "
        f"{acf['binary-beta']:.3f} [{'ok' if clause_c else 'violated'}]; "
        f"{elapsed:.1f}s (budget 120s)")
    _announce(capsys, 3, ok, detail)
    assert clause_b, detail
    assert clause_c, detail
    assert elapsed < 120
    assert clause_a, detail


# ---------------------------------------------------------------- criterion 4

EXPECTED_TABLE = {
    ("null", 2): "X", ("null", 3): "X", ("null", 4): "X",
    ("beta", 2): "O", ("beta", 3): "X", ("beta", 4): "X",
    ("null-ma", 2): "O", ("null-ma", 3): "X", ("null-ma", 4): "X",
    ("beta-ma", 2): "O", ("beta-ma", 3): "O", ("beta-ma", 4): "X",
}


def test_criterion_4_classification_table(capsys, tmp_path):
    """Full kernel classification over the sample-size grid."""
    t0 = time.perf_counter()
    plan = harness.make_plan("table1", out_dir=str(tmp_path), threads=4)
    orchestrate_out = harness.orchestrate(plan)
    rows = (tmp_path / "table1.csv").read_text().splitlines()[1:]
    got = {}
    for row in rows:
        name, c, _, _, _, label = row.split(",")
        got[(name, int(c))] = label
    elapsed = time.perf_counter() - t0
    wrong = {cell: (lab, EXPECTED_TABLE[cell]) for cell, lab in got.items()
             if lab != EXPECTED_TABLE[cell]}
    ok = not wrong and len(got) == 12 and elapsed < 3600
    detail = (f"{12 - len(wrong)}/12 cells labeled as expected"
              + (f", wrong: {wrong}" if wrong else "")
              + f", {elapsed:.1f}s (budget 3600s)")
    _announce(capsys, 4, ok, detail)
    assert len(got) == 12
    assert not wrong, detail
    assert "inconclusive" not in got.values()
    assert elapsed < 3600
    assert len(orchestrate_out.files) >= 38  # 36 cell reports + summaries


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_one_step_decay(capsys):
    """The one-step statistic of frozen directions decays in n."""
    t0 = time.perf_counter()
    cells = [("null-ma", 2, "theta"), ("beta-ma", 3, "alpha")]
    opts = dict(datasets=24, inner=16, starts=16, bank_size=1024, pool=16384)
    verdicts = []
    details = []
    for name, c, transform in cells:
        cfg = _cfg(c)
        theta0 = harness.default_theta0(c)
        rep = {}
        for n in (100, 1600):
            seed = RngStream(MASTER, "lemma", name, c, n).seed_int()
            rep[n] = one_step_statistic(name, cfg, n, 96, transform, seed,
                                        theta0=theta0, **opts)
        d100, d1600 = rep[100].value("D"), rep[1600].value("D")
        margin = d100 / 1.5 - d1600
        guard = 3.0 * np.hypot(rep[100].se("D") / 1.5, rep[1600].se("D"))
        verdicts.append(margin > guard)
        details.append(f"{name} c={c} {transform}: {d100:.4f}->{d1600:.4f} "
                       f"margin {margin:.4f} vs guard {guard:.4f}")
    elapsed = time.perf_counter() - t0
    ok = all(verdicts) and elapsed < 900
    detail = "; ".join(details) + f"; {elapsed:.1f}s (budget 900s)"
    _announce(capsys, 5, ok, detail)
    assert all(verdicts), detail
    assert elapsed < 900


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_kernel_normal_approx(capsys):
    """One-step conditional law vs the information-based approximation."""
    t0 = time.perf_counter()
    cfg = _cfg(2)
    theta0 = Theta((), (2.0,))
    n = 1600
    root = RngStream(MASTER, "kapprox")
    data = sample_dataset(cfg, theta0, n, seed=root.child("data").seed_int())
    ref = sir_reference(cfg, data, 4096, seed=root.child("sir").seed_int(),
                        pool=16384)
    hat = ref.theta_hat
    disp = 2.0 / np.sqrt(n)
    start = Theta.from_vector(hat + disp, 2, 1)
    ap_mean, ap_cov, _ = kernel_normal_approx("binary-beta", cfg, data, ref,
                                              start)

    variant = VariantId.parse("binary-beta")
    state = initial_state(cfg, variant, 10_000, root.child("start"),
                          init="fixed", theta=start)
    kernel_step(cfg, data, state, variant, root.child("step"))
    draws = state.beta[:, 0]

    emp_pull = draws.mean() - hat[0]
    ap_pull = ap_mean[0] - hat[0]
    rel_pull = abs(emp_pull - ap_pull) / abs(ap_pull)
    rel_var = abs(draws.var(ddof=1) - ap_cov[0, 0]) / ap_cov[0, 0]
    elapsed = time.perf_counter() - t0
    ok = rel_pull < 0.15 and rel_var < 0.15 and elapsed < 300
    detail = (f"centered pull rel err {rel_pull:.3f}, variance rel err "
              f"{rel_var:.3f} (tolerance 0.15), {elapsed:.1f}s (budget 300s)")
    _announce(capsys, 6, ok, detail)
    assert rel_pull < 0.15, detail
    assert rel_var < 0.15, detail
    assert elapsed < 300


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_posterior_normal_limit(capsys):
    """Reference marginals approach the fitted normal as n grows."""
    t0 = time.perf_counter()
    cfg = _cfg(2)
    theta0 = Theta((), (2.0,))
    stats = {}
    for n in (100, 400, 1600):
        root = RngStream(MASTER, "bvm", n)
        data = sample_dataset(cfg, theta0, n,
                              seed=root.child("data").seed_int())
        ref = build_reference(cfg, data, seed=root.child("chain").seed_int())
        worst = 0.0
        for j in range(ref.dim):
            law = norm(loc=ref.bvm_mean[j],
                       scale=np.sqrt(ref.bvm_cov[j, j]))
            worst = max(worst, kstest(ref.sample[:, j], law.cdf).statistic)
        stats[n] = worst
    elapsed = time.perf_counter() - t0
    decreasing = stats[100] > stats[400] > stats[1600]
    ok = decreasing and elapsed < 600
    detail = (f"max KS {stats[100]:.5f} -> {stats[400]:.5f} -> "
              f"{stats[1600]:.5f} strictly decreasing={decreasing}, "
              f"{elapsed:.1f}s (budget 600s)")
    _announce(capsys, 7, ok, detail)
    assert decreasing, detail
    assert elapsed < 600


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_scale_free_freezing(capsys):
    """At c=4 the cut ratio freezes while the identified slope moves."""
    t0 = time.perf_counter()
    cfg = _cfg(4)
    theta0 = harness.default_theta0(4)
    opts = dict(datasets=6, inner=16, starts=16, bank_size=1024, pool=16384)
    ratio = one_step_statistic(
        "beta-ma", cfg, 1000, 48, "alpha-ratio",
        RngStream(MASTER, "fig3-stat", "alpha-ratio").seed_int(),
        theta0=theta0, **opts)
    gbeta = one_step_statistic(
        "beta-ma", cfg, 1000, 48, "g-theta",
        RngStream(MASTER, "fig3-stat", "g-theta").seed_int(),
        theta0=theta0, coords=[2], **opts)
    elapsed = time.perf_counter() - t0
    ok = ratio.value("D") < gbeta.value("D") / 2.0 and elapsed < 300
    detail = (f"D(alpha-ratio)={ratio.value('D'):.4f}±{ratio.se('D'):.4f} vs "
              f"D(identified slope)={gbeta.value('D'):.4f}±"
              f"{gbeta.se('D'):.4f}, need factor 2, got "
              f"{gbeta.value('D') / ratio.value('D'):.2f}, "
              f"{elapsed:.1f}s (budget 300s)")
    _announce(capsys, 8, ok, detail)
    assert ratio.value("D") < gbeta.value("D") / 2.0, detail
    assert elapsed < 300


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_thread_determinism(capsys, tmp_path):
    """Output bytes do not depend on the thread count."""
    t0 = time.perf_counter()
    kw = dict(R=4, variants=("beta", "null-ma"), c_list=(2,),
              n_list=(100, 400, 1600),
              options={"datasets": 2, "inner": 4, "starts": 2,
                       "bank_size": 256, "pool": 2048})
    m1 = harness.orchestrate(harness.make_plan(
        "table1", out_dir=str(tmp_path / "t1"), threads=1, **kw))
    m3 = harness.orchestrate(harness.make_plan(
        "table1", out_dir=str(tmp_path / "t3"), threads=3, **kw))
    same_inventory = m1.files == m3.files
    same_bytes = all(
        (tmp_path / "t1" / f).read_bytes() == (tmp_path / "t3" / f).read_bytes()
        for f in m1.files)
    f1 = harness.orchestrate(harness.make_plan(
        "fig1", out_dir=str(tmp_path / "f1"), threads=1, n_list=(60,), m=20))
    f2 = harness.orchestrate(harness.make_plan(
        "fig1", out_dir=str(tmp_path / "f2"), threads=4, n_list=(60,), m=20))
    fig_same = f1.files == f2.files and all(
        (tmp_path / "f1" / f).read_bytes() == (tmp_path / "f2" / f).read_bytes()
        for f in f1.files)
    elapsed = time.perf_counter() - t0
    ok = same_inventory and same_bytes and fig_same
    detail = (f"{len(m1.files)} table files + {len(f1.files)} trace files "
              f"byte-identical across thread counts={ok}, {elapsed:.1f}s")
    _announce(capsys, 9, ok, detail)
    assert same_inventory and same_bytes
    assert fig_same
