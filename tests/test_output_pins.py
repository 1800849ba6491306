"""sha256 pins of the program's outputs, recorded at commit 5a850b2.

Six families, each run at a small size (about 3 s in all):

* ``loglik``: the bits of ``log_likelihood_batch`` on a fixed parameter
  grid for c = 2, 3 and 4. The rows that are -inf are listed apart, and
  the digest covers the finite rows only, so a change that rescues a
  tail row shows up as a changed row list with the finite digest intact;
* ``sir``: the bank bytes of ``build_reference_sir`` and the bits of its
  ESS, for small pools at c = 2, 3 and 4;
* ``table1``: every file of criterion 9's table1 plan;
* ``diagnose``: every file of a small diagnose plan with ``with_risk``;
* ``fig2``: every file of a short fig2 plan;
* ``reference``: the sample and BvM covariance bytes of
  ``build_reference`` at c = 3, p = 2, short length.

Reading a failure: the bits depend on the platform (numpy's SIMD paths
for ``log`` and ``exp``, the BLAS, scipy), as the kernel trace digests in
``test_kernels.py`` do. If every family fails at once, the platform
changed, not the code: re-record the pins from a known-good commit on the
new platform. If only some families fail, the code on their path moved an
output byte.
"""

import hashlib

import numpy as np
import pytest

from mcmcdegen.asymptotics import build_reference, build_reference_sir
from mcmcdegen.harness import default_theta0, make_plan, orchestrate
from mcmcdegen.model import (CovariateSpec, ModelConfig, log_likelihood_batch,
                             sample_dataset)
from mcmcdegen.sampling import RngStream


def _sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# ------------------------------------------------------------------ loglik

# Free cut-points per c; the last row of c = 3 and of c = 4 leaves the
# ordered cone and is -inf by definition.
_LOGLIK_ALPHAS = {
    2: [()],
    3: [(0.25,), (1.0,), (3.0,), (-0.5,)],
    4: [(0.5, 1.0), (0.7, 1.4), (1.0, 4.0), (1.4, 0.7)],
}
_LOGLIK_BETAS = np.linspace(-12.0, 12.0, 9)


def _loglik(c):
    """Log likelihood on the grid (alpha rows x beta values), n = 400."""
    cfg = ModelConfig(c=c)
    data = sample_dataset(cfg, default_theta0(c), 400, seed=401)
    rows = len(_LOGLIK_ALPHAS[c])
    alpha = np.repeat(np.array(_LOGLIK_ALPHAS[c], dtype=float).reshape(
        rows, c - 2), _LOGLIK_BETAS.size, axis=0)
    beta = np.tile(_LOGLIK_BETAS, rows)[:, None]
    return log_likelihood_batch(cfg, alpha, beta, data)


# c -> (indices of the -inf rows, sha256 of the finite rows' bits). Rows
# 27-35 of c = 3 and c = 4 leave the cone; each other -inf row has a cell
# in the top category where 1 - Phi(a) rounds to 0 (beta >= 6).
_LOGLIK_PINS = {
    2: ([8],
        "2ce31800b19d208be32c7607e55bbfdb401175ba340bd66f58d296655c521abd"),
    3: ([7, 8, 16, 17, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35],
        "eba224db6a5eede7f0aa9e96c68a34ab11fb7f509f32061a770789dd6faea4ff"),
    4: ([7, 8, 16, 17, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35],
        "4860884537b922f5389f1312ede24be12570f60f0040db4c3a95ed224478522b"),
}


@pytest.mark.parametrize("c", sorted(_LOGLIK_PINS))
def test_loglik_bits(c):
    out = _loglik(c)
    rows, digest = _LOGLIK_PINS[c]
    assert np.flatnonzero(np.isneginf(out)).tolist() == rows
    assert _sha(out[np.isfinite(out)]) == digest


# --------------------------------------------------------------------- sir

def _sir(c):
    """A 128-row bank from a 1024-draw pool, n = 100; (bank digest, ESS)."""
    cfg = ModelConfig(c=c)
    data = sample_dataset(cfg, default_theta0(c), 100, seed=101)
    info = {}
    bank = build_reference_sir(cfg, data, 128, RngStream(102, "pin-sir", c),
                               pool=1024, info=info)
    return _sha(bank), info["ess"].hex()


_SIR_PINS = {
    2: ("c202c73be80911d119559772d5839281362131d3f561bdec28ec3206a12db328",
        "0x1.9ac8323252a44p+9"),
    3: ("1ae91bfdba78c60d5f3d60b6e1758bb287b4d1b2260a9fb21e1f16150c57a55a",
        "0x1.3f86bc256e52bp+9"),
    4: ("ec3c3d9cacb6fce1a72b265fbe8fef69511f01f9b4660c9efabb98d887897f65",
        "0x1.fef41f0743a20p+8"),
}


@pytest.mark.parametrize("c", sorted(_SIR_PINS))
def test_sir_bank_bytes(c):
    assert _sir(c) == _SIR_PINS[c]


# ------------------------------------------------------------------- plans

_PLANS = {
    # criterion 9's table1 plan
    "table1": ("table1", dict(
        R=4, variants=("beta", "null-ma"), c_list=(2,),
        n_list=(100, 400, 1600),
        options={"datasets": 2, "inner": 4, "starts": 2, "bank_size": 256,
                 "pool": 2048})),
    "diagnose": ("diagnose", dict(
        n_list=(60,), m=5, R=2,
        options={"inner": 4, "starts": 2, "bank_size": 128, "pool": 1024,
                 "with_risk": True, "reference_size": 128})),
    "fig2": ("fig2", dict(n_list=(60,), m=8)),
}

# plan -> {file name: sha256}
_PLAN_PINS = {
    "table1": {
        "table1.csv":
            "22d6b36812f7204c56f36385c613e5d0b35c4c529d40a68bd3de53d87ec6b319",
        "table1.json":
            "882f7661745be98fd076142139c891f28b6f1f8f055b5f7f4d9223f7defe036d",
        "table1_beta_c2_n100.json":
            "4d38d26453d4f49c21f0944d81ed4962f23a2f6e1a05b07f62d94e4d294366a0",
        "table1_beta_c2_n1600.json":
            "81930cbb8bccaaa02034c820fae74441ad497d260bac199444c15a750d2ad9a8",
        "table1_beta_c2_n400.json":
            "9aab2fb9b68c02ea54af47e3e793e30e5cc2ab847063b418f0ba88eae0a29006",
        "table1_null-ma_c2_n100.json":
            "178e28f845d704888b87f5f61a032c2347cd0805c3c94a2225534f6fa25328ce",
        "table1_null-ma_c2_n1600.json":
            "623c3fb8acf9b356b0ba1b91510f4ad926c2114d4fa54fdf70156883ddcc885b",
        "table1_null-ma_c2_n400.json":
            "29b615db5e5c905365f73d0b6117bf4cb3d9767f8ecc5174c4bbb1fc2316fbff",
    },
    "diagnose": {
        "diagnose_binary-null_c2_n60_one_step.json":
            "b19f2d64a5f653cd5617aa851245406d91a195ae15acb9c90066208bce7f1073",
        "diagnose_binary-null_c2_n60_risk.json":
            "ca4e2c756b5ba159c898a329e8ed7b2c4068c3c619452f219517bbececa1a60d",
        "diagnose_binary-null_c2_n60_risk_prime.json":
            "60f46e58a5558a237b0452783e97bc83faeeb3f031ea818085113fb00b460075",
        "diagnostics.csv":
            "4e4ac5287155f092636092bc8822373801176f1cbf4e76bd01161ea2c5c2a2a3",
    },
    "fig2": {
        "beta-ma_n60_r0.csv":
            "bb6653a8bcd6f3fb2f229f699d7f3387b09847701630d84f65bd35d11906c368",
        "beta_n60_r0.csv":
            "4e75d4ef62672d241a8f9055cd8ac6bc72e72ace06d1f9972f5c9615bdc9c59b",
        "fig2.svg":
            "5ef8192b08eafbf8dc8d83ad96494dd9d54e33328008a583cdbc2cbb8c30dcc1",
    },
}


@pytest.mark.parametrize("plan", sorted(_PLAN_PINS))
def test_plan_files(tmp_path, plan):
    scenario, kw = _PLANS[plan]
    manifest = orchestrate(make_plan(scenario, out_dir=str(tmp_path),
                                     threads=1, **kw))
    assert manifest.files == _PLAN_PINS[plan]


# --------------------------------------------------------------- reference

def _reference():
    """build_reference at c = 3, p = 2, n = 100: 200 rows after burn-in."""
    cfg = ModelConfig(c=3, covariates=CovariateSpec(p=2))
    data = sample_dataset(cfg, default_theta0(3, 2), 100, seed=201)
    ref = build_reference(cfg, data, seed=202, length=2000, burn=500,
                          thin=10)
    return _sha(ref.sample), _sha(ref.bvm_cov)


_REFERENCE_PIN = (
    "e9dbcff32685f97469591c91be364636677fb27fe9538a0f5ae9aa9c55fc111d",
    "0725914e5e0ae2b84166968ea32adda5f5d0cb4b04e945c714927db2e416a51e")


def test_reference_sample_bytes():
    assert _reference() == _REFERENCE_PIN
