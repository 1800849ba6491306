"""sha256 pins of the program's outputs, recorded at commit 5a850b2
(``estimators`` at commit ddac0d4).

Eight families; the first seven run at a small size (about 4 s in all):

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
  ``build_reference`` at c = 3, p = 2, short length;
* ``estimators``: the report bytes of the estimator paths no plan reaches:
  R' from a fixed start at c = 2, and the one-step statistic at c = 4 on
  the cut ratios and on the identified slope alone (the paths of
  acceptance criteria 3 and 8);
* ``paper``: every file of the default ``fig1``, ``fig2``, ``fig3`` and
  ``diagnose`` plans, at threads = 1 and 2 (about 3 s), and the
  ``manifest.files`` of the default ``table1`` plan, which acceptance
  criterion 4 runs and checks (``TABLE1_DEFAULT_PIN``).

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
from mcmcdegen.metrics import estimate_Rprime, one_step_statistic
from mcmcdegen.model import (CovariateSpec, ModelConfig, Theta,
                             log_likelihood_batch, sample_dataset)
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


# ------------------------------------------------------------------- paper

# The paper's default plans, recorded at commit a75e948.
# plan -> {file name: sha256}, the same at threads = 1 and 2
_PAPER_PINS = {
    "diagnose": {
        "diagnose_binary-null_c2_n100_one_step.json":
            "0c8408fdc8622ea196a83dea6f04ea9afa0849b536d70a7e7dccc9c502c449ad",
        "diagnose_binary-null_c2_n100_risk_prime.json":
            "e0faf0772bf15d34d3da8f23fa21843024fe7de5ff2ddc02003c82633ccd417b",
        "diagnose_binary-null_c2_n400_one_step.json":
            "12e130e9ecbbc0f16a342a4f93da5ca69021775855764f79ac0325c216eec824",
        "diagnose_binary-null_c2_n400_risk_prime.json":
            "6896c1a65b33ab2a967f1d59f011a28ee280ce9c0f03528cba0c05e83c09dd7f",
        "diagnostics.csv":
            "0a61458db67297ca5b53ef46abb3957039501894eb7c550a122b3d3fa8bac1e9",
    },
    "fig1": {
        "binary-beta_n1000_r0.csv":
            "741c56c61fbb18899bc2e52cd6726b9c05423072d5ec71703b2f73e63a2b42f4",
        "binary-beta_n100_r0.csv":
            "097b77b435a83a9e6884f4c5327e0a0d8c19cbbc59504249aeca805569aba45a",
        "binary-null_n1000_r0.csv":
            "d7ac9d32380c4d676490c31ab8e62bad8e1bd50d52b85035f0a17ded035df858",
        "binary-null_n100_r0.csv":
            "076c5bbdc0fd593e24ac30c9d1fe839a4dcc26223337b81d4a43b22b8b80108c",
        "fig1.svg":
            "0ebb02bd74a95265524bc444f5d0bab0953b791ceac7131f0f0c9551bd0e868b",
    },
    "fig2": {
        "beta-ma_n1000_r0.csv":
            "69a5120da82c106a40eb05029654367c90f5425b5134eca7c723202bbb4d2773",
        "beta_n1000_r0.csv":
            "c66089a0cfe6bfa5c1455bd82fa476225ad7b2e46a0a5af95a45259524d6ce72",
        "fig2.svg":
            "6f9fa213d1cd6d720b590665808fb7d450b8ac417c6e467f4b89fb547d15f909",
    },
    "fig3": {
        "beta-ma_n1000_r0.csv":
            "55d0ca28c91d2cef35baf901590b0f75623d51ab6c0a209d464437110aa4a36e",
        "beta_n1000_r0.csv":
            "fb99fcf0bcb1bf22f0da5376bf11c1270d7e191f1b98deb2b07f27147c47fcc8",
        "fig3.svg":
            "ae45168a86e5b45e31a03a1cd8985d06df4c7fe3f7fc7ff0863419cdd735d509",
    },
}

# manifest.files of the default table1 plan (acceptance criterion 4)
TABLE1_DEFAULT_PIN = {
    "table1.csv":
        "8602a196bbb2eec2ef4a2a582496f6611498e989d91fb91de74389cc403cb47f",
    "table1.json":
        "95a4cfff42b319f6d347e094bf24c61be217b99c87be71da9c7d359912a15385",
    "table1_beta-ma_c2_n100.json":
        "5db5650ff9a7aa8a08173c3826fd4b61a9afd0866143dd2d6ac456a8d63daad3",
    "table1_beta-ma_c2_n1600.json":
        "074bac006bfbe269c8024f584edb061c32e075abcfdd6e95df419007d8d7cff7",
    "table1_beta-ma_c2_n400.json":
        "c3e7250f582714093d25921f5bd18b19614bea86b879c3dd19b8d4bed65d4343",
    "table1_beta-ma_c3_n100.json":
        "29f35d6027ee33a4813107a3f4681df0dc3428658c6b41cf7829d3bcdf32385d",
    "table1_beta-ma_c3_n1600.json":
        "4ca7c3d7807876828b80623808033501463147eb491f6467a64143e2344d71c2",
    "table1_beta-ma_c3_n400.json":
        "fe93bc1b8e08b16d05e1f4c4d0adfffbaa6f6ad53d866924141b8d7ff7fe992f",
    "table1_beta-ma_c4_n100.json":
        "a9337b18b394fc9e127409df69805bbf2314f18906aecf8eda2f05f8e72aff34",
    "table1_beta-ma_c4_n1600.json":
        "39f037c68e4ce29c1275a88e5de1e3af82de91e9e6e933226115e90765563ac1",
    "table1_beta-ma_c4_n400.json":
        "6500270307999f291c6df59414bf30e57014f84b332d2285623e2b846425b2bd",
    "table1_beta_c2_n100.json":
        "609ec5a41bb4f230749428a4780e65f4aa3bb3db1800fae3e032c3e7fe94a772",
    "table1_beta_c2_n1600.json":
        "f572a4f55135015d83079a2af9e86f40bbbbb07a2c4a0e6a53ee4e449067fb6b",
    "table1_beta_c2_n400.json":
        "1cb5e99e2e7a10504abf6c4056a39855ecb97c5dcc2a0eb1187f157ee66167d0",
    "table1_beta_c3_n100.json":
        "8450f70285409f8782b0a819fd1529d9aae848f9c9af45abd22b9340bb83f35b",
    "table1_beta_c3_n1600.json":
        "bc304c3d1091743a82fd1ec2a2cff60bf5827a4c01da0a44c47cef06c933f17c",
    "table1_beta_c3_n400.json":
        "f3abb1f0ba58d7c3e228d9a3e075ff9745defa4f9570a9285140eaab24835773",
    "table1_beta_c4_n100.json":
        "f13a075da17987f4edbbf257e4684085aacfaac2e04452b1764bfa2f27454278",
    "table1_beta_c4_n1600.json":
        "979488e45d750192b681071d9e8ac954d4ff72ac4777ea51b7e63753183c231a",
    "table1_beta_c4_n400.json":
        "15096a33c205c9ed2aeffc19cb1e0d5993e3ddd8d0b6d20d5854178b7085f1e4",
    "table1_null-ma_c2_n100.json":
        "1547c922cffb28813a9ee2ed4def9a2952d717de2f8218d654b5ccf95bcf57ed",
    "table1_null-ma_c2_n1600.json":
        "7249474ec782de4bfc8735faa8b1a81dae5aa565fcb38a7fe301356404cb128e",
    "table1_null-ma_c2_n400.json":
        "811aeb40017e0d99246d2708abed76c706a35059eea576d181dfcb3ff5f737d0",
    "table1_null-ma_c3_n100.json":
        "c183e2bf084e4cb44199738fce54a827f54734cfd988939d693df50202e971e8",
    "table1_null-ma_c3_n1600.json":
        "2071582e15a711466305c55b92a62ae93ce35136a595f33f6b419f42c6529653",
    "table1_null-ma_c3_n400.json":
        "a77e6ee9b53739f28a6e329bc553d8a619d25aac751a9337bd3bcf80663e5948",
    "table1_null-ma_c4_n100.json":
        "648fdd8a70ff6f5931900bfb87c1c3c3817bef300edf25ccafe9031bdaf7a793",
    "table1_null-ma_c4_n1600.json":
        "6b7f8f50b4118fe8bce8e0a249d748ff3f3f9671ff1dc1d142fc42d99ecd7f9c",
    "table1_null-ma_c4_n400.json":
        "e45f2808351b7a1e9a4f3e6ef3bbcdef55344b2077a6a17689cb303f3ce1b4d1",
    "table1_null_c2_n100.json":
        "93bd83470db3b85f5a21a319ced6fe32051350547492be511b8e3f8839a81555",
    "table1_null_c2_n1600.json":
        "51cff42250da65786b1b0fe31d7ac25364f012d20711f72d975dff104271a78d",
    "table1_null_c2_n400.json":
        "8b38381d453665cdb3eef9836aa2b1e4d0eb018a539bf2fc1492bd93f1e02ba7",
    "table1_null_c3_n100.json":
        "43eb4b7ca82955341ef27288a9857cf015890eeba281985d5f7f345fca5f46bc",
    "table1_null_c3_n1600.json":
        "8a75c6dca9d22fa55ce4d20f91874a11c0c7e49ab3c8e43412c5158b14904f7b",
    "table1_null_c3_n400.json":
        "9cf42dcfbcbfb1785964103931afab542357d2f575877fb21e1ca1c79e995774",
    "table1_null_c4_n100.json":
        "007625f36eab68b94f2ef3268eb9906b17c51613ce262f5b84d7fecafe917e7f",
    "table1_null_c4_n1600.json":
        "0568eb485e613fe4c64136e0de1f847275abbcae72511a8e2c48b4813fdbca73",
    "table1_null_c4_n400.json":
        "9c4c9cc3e3443dbca7a2cfff96c391a73d5bfd6e662cd5d3d97dc75da7ee7932",
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("plan", sorted(_PAPER_PINS))
def test_paper_plan_files(tmp_path, plan, threads):
    manifest = orchestrate(make_plan(plan, out_dir=str(tmp_path),
                                     threads=threads))
    assert manifest.files == _PAPER_PINS[plan]


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


# -------------------------------------------------------------- estimators

def _estimator_report(name):
    if name == "rprime-fixed":
        return estimate_Rprime(
            "binary-beta", ModelConfig(c=2), n=60, m=6, R=3, master_seed=501,
            theta0=default_theta0(2), start="fixed",
            theta_start=Theta((), (1.5,)))
    transform, coords = {"one-step-ratio": ("alpha-ratio", None),
                         "one-step-gbeta": ("g-theta", [2])}[name]
    return one_step_statistic(
        "beta-ma", ModelConfig(c=4), 100, 4, transform, 502,
        theta0=default_theta0(4), datasets=2, inner=4, starts=2,
        bank_size=128, pool=1024, coords=coords)


_ESTIMATOR_PINS = {
    "one-step-gbeta":
        "fd88b2f87a86f8741b7b3e8076cc026ef95b946bf3a0f8c04ace16f0b857f7cb",
    "one-step-ratio":
        "b7ade5bb129228905f154f107a45a4073379176f9816f993c465ec4d33070428",
    "rprime-fixed":
        "79ee4faaa3af775406474bb2b96b475345f5103a8c797f478fd210d6f7425efd",
}


@pytest.mark.parametrize("name", sorted(_ESTIMATOR_PINS))
def test_estimator_report_bytes(name):
    body = _estimator_report(name).to_json().encode()
    assert hashlib.sha256(body).hexdigest() == _ESTIMATOR_PINS[name]
