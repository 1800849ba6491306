"""Command-line interface.

Subcommands generate datasets, run single chains, build reference
posteriors, and drive the harness scenarios (diagnose, table1, figure).
``verify`` runs the fast oracle suite and prints one pass/fail line per
check. Options may come from a JSON config file; explicit flags win.
Failures print a machine-readable JSON object on stderr and exit
nonzero (2 for configuration problems, 1 for runtime failures).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, harness, metrics, model
from .kernels import VariantId, run_chain, trace_filename
from .model import CovariateSpec, ModelConfig, Theta
from .sampling import RngStream

__all__ = ["main", "build_parser", "run_verify"]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _options(args, cfg: dict) -> dict:
    """The config file's ``options`` overlaid with the ``--opt KEY=VALUE``
    pairs, checked against ``_COMMAND_OPTIONS``."""
    out = dict(cfg.get("options", {}))
    for pair in args.opt or ():
        if "=" not in pair:
            raise ValueError(f"--opt expects KEY=VALUE, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    if args.command in _COMMAND_OPTIONS:
        harness.check_option_keys(out, _COMMAND_OPTIONS[args.command],
                                  args.command)
    return out


#: The ``--opt`` keys each subcommand reads; ``harness.make_plan`` checks
#: the plan scenarios' keys against ``harness.SCENARIO_OPTIONS``.
_COMMAND_OPTIONS = {
    "gen-data": ("theta0",),
    "run-chain": ("init", "start", "record_every"),
    "build-reference": ("length", "burn", "thin"),
}

#: The config-file keys each subcommand reads.
_BASE_KEYS = ("seed", "out", "n", "c", "p", "options")
_PLAN_KEYS = _BASE_KEYS + ("n_list", "c_list", "m", "R", "variant",
                           "variants", "threads")
_CONFIG_KEYS = {"gen-data": _BASE_KEYS, "build-reference": _BASE_KEYS,
                "run-chain": _BASE_KEYS + ("m", "variant"),
                "diagnose": _PLAN_KEYS, "table1": _PLAN_KEYS,
                "figure": _PLAN_KEYS + ("scenario",)}


def _load_config(args) -> dict:
    """The ``--config`` file's settings; a key the subcommand does not read
    is refused."""
    if not args.config:
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not (isinstance(cfg, dict)
            and isinstance(cfg.get("options", {}), dict)):
        raise ValueError("config file must hold a JSON object, with its "
                         "options in one")
    harness.check_option_keys(cfg, _CONFIG_KEYS[args.command],
                              f"{args.command} config file")
    return cfg


def _setting(args, cfg: dict, name: str, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    return cfg.get(name, default)


def _model_for(c: int, p: int) -> ModelConfig:
    return ModelConfig(c=c, covariates=CovariateSpec(p=p))


def _start_theta(opts: dict, c: int, p: int) -> Theta | None:
    raw = opts.get("start")
    if raw is None:
        return None
    if isinstance(raw, (int, float)):
        raw = [raw]
    vals = [float(v) for v in (raw.split(",") if isinstance(raw, str)
                               else raw)]
    if len(vals) != c - 2 + p:
        raise ValueError(f"start needs {c - 2 + p} values for c={c}, p={p}")
    return Theta(alpha=tuple(vals[:c - 2]), beta=tuple(vals[c - 2:]))


# --------------------------------------------------------------------------
# subcommand implementations

def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    c = int(_setting(args, cfg, "c", 2))
    p = int(_setting(args, cfg, "p", 1))
    n = int(_setting(args, cfg, "n", 100))
    seed = int(_setting(args, cfg, "seed", 20_240_817))
    out = Path(_setting(args, cfg, "out", f"data_c{c}_n{n}.csv"))
    opts = _options(args, cfg)
    mc = _model_for(c, p)
    theta0 = _start_theta({"start": opts.get("theta0")}, c, p) \
        or harness.default_theta0(c, p)
    data = model.sample_dataset(mc, theta0, n, seed=seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save_dataset(data, out)
    print(json.dumps({"path": str(out), "n": n, "c": c, "p": p,
                      "seed": seed}))
    return 0


def cmd_run_chain(args) -> int:
    cfg = _load_config(args)
    opts = _options(args, cfg)
    variant = VariantId.parse(_setting(args, cfg, "variant", "binary-beta"))
    c = int(_setting(args, cfg, "c", 2 if variant.binary else 3))
    p = int(_setting(args, cfg, "p", 1))
    n = int(_setting(args, cfg, "n", 100))
    m = int(_setting(args, cfg, "m", 200))
    seed = int(_setting(args, cfg, "seed", 20_240_817))
    out_dir = Path(_setting(args, cfg, "out", "out"))
    mc = _model_for(c, p)
    theta0 = harness.default_theta0(c, p)
    root = RngStream(seed, "run-chain")
    data = model.sample_dataset(mc, theta0, n,
                                seed=root.child("data").seed_int())
    init = str(opts.get("init", "fixed"))
    reference = None
    if args.reference:
        ref = asymptotics.ReferencePosterior.load(Path(args.reference))
        reference = ref.sample
        init = "reference-posterior"
    start = _start_theta(opts, c, p) or theta0
    trace = run_chain(mc, data, variant, m, root.child("chain"),
                      init=init, theta=start, reference=reference,
                      record_every=int(opts.get("record_every", 1)))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / trace_filename(variant, n)
    trace.save(path)
    print(json.dumps({"path": str(path), "variant": variant.name,
                      "n": n, "steps": m, "seed": seed}))
    return 0


def cmd_build_reference(args) -> int:
    cfg = _load_config(args)
    opts = _options(args, cfg)
    c = int(_setting(args, cfg, "c", 2))
    p = int(_setting(args, cfg, "p", 1))
    n = int(_setting(args, cfg, "n", 100))
    seed = int(_setting(args, cfg, "seed", 20_240_817))
    out = Path(_setting(args, cfg, "out", f"reference_c{c}_n{n}.csv"))
    mc = _model_for(c, p)
    theta0 = harness.default_theta0(c, p)
    root = RngStream(seed, "build-reference")
    data = model.sample_dataset(mc, theta0, n,
                                seed=root.child("data").seed_int())
    ref = asymptotics.build_reference(
        mc, data, seed=root.child("mcmc").seed_int(),
        length=int(opts.get("length", 200_000)),
        burn=int(opts.get("burn", 10_000)),
        thin=int(opts.get("thin", 10)))
    out.parent.mkdir(parents=True, exist_ok=True)
    ref.save(out)
    print(json.dumps({"path": str(out), "size": ref.size, "n": n,
                      "warnings": ref.warnings}))
    return 0


def _plan_from_args(args, cfg: dict,
                    scenario: str) -> harness.ExperimentPlan:
    opts = _options(args, cfg)
    kw = {"master_seed": _setting(args, cfg, "seed"),
          "out_dir": _setting(args, cfg, "out"),
          "m": _setting(args, cfg, "m"),
          "R": _setting(args, cfg, "R"),
          "p": _setting(args, cfg, "p"),
          "options": opts,
          "threads": _setting(args, cfg, "threads")}
    n = _setting(args, cfg, "n") or cfg.get("n_list")
    if n is not None:
        kw["n_list"] = tuple(n) if not isinstance(n, str) else _int_list(n)
    variant = _setting(args, cfg, "variant") or cfg.get("variants")
    if variant is not None:
        kw["variants"] = (tuple(variant) if isinstance(variant, (list, tuple))
                          else tuple(variant.split(",")))
    cval = _setting(args, cfg, "c") or cfg.get("c_list")
    if cval is not None:
        kw["c_list"] = (tuple(cval) if isinstance(cval, (list, tuple))
                        else _int_list(str(cval)))
    ints = ("master_seed", "m", "R", "p", "threads")
    kw = {k: int(v) if k in ints and v is not None else v
          for k, v in kw.items()}
    return harness.make_plan(scenario, **kw)


def cmd_plan(args) -> int:
    """Run a harness plan: ``diagnose``, ``table1``, or ``figure`` with its
    ``--scenario``; print the summary CSV, or the figure's name."""
    cfg = _load_config(args)
    scenario = args.command
    if scenario == "figure":
        scenario = _setting(args, cfg, "scenario")
        if scenario not in ("fig1", "fig2", "fig3"):
            raise ValueError("--scenario must be one of fig1, fig2, fig3")
    plan = _plan_from_args(args, cfg, scenario)
    manifest = harness.orchestrate(plan)
    if args.summary is None:
        print(json.dumps({"out_dir": plan.out_dir,
                          "figure": f"{scenario}.svg"}))
    else:
        print((Path(plan.out_dir) / args.summary).read_text(), end="")
        print(json.dumps({"out_dir": plan.out_dir,
                          "cells": len(manifest.cells)}))
    return 0


# --------------------------------------------------------------------------
# verify: the fast oracle suite

def run_verify(out=None) -> list[tuple[str, bool, str]]:
    """Run the oracle checks; returns (name, ok, detail) per check."""
    checks: list[tuple[str, bool, str]] = []
    rng = np.random.default_rng(20_240_825)

    K, L = model.scale_constants()
    ok = abs(K - 2.0) < 1e-8 and abs(L) < 1e-8
    checks.append(("scale-constants", ok, f"K={K:.12f} L={L:.3e}"))

    # The checks that draw from ``rng`` keep their draws and their order:
    # any change there shifts the data of every later check.
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 40))
        pts = rng.normal(size=(k, d)) * rng.uniform(0.05, 2.0)
        x = rng.normal(size=d)
        scale = float(rng.uniform(0.2, 5.0))
        bl = metrics.bl_distance(pts, np.tile(x, (k, 1)), scale=scale)
        direct = float(np.mean(metrics.ground_metric(pts, x[None, :], scale)))
        worst = max(worst, abs(bl - direct))
    checks.append(("point-mass-identity", worst < 1e-9, f"max|Δ|={worst:.2e}"))

    from scipy.stats import wasserstein_distance
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 30)))
        b = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 30)))
        for u in (a, b):  # each against a cloud of its own size
            v = rng.uniform(0.1, 1.0, size=u.size)
            bl = metrics.bl_distance(u[:, None], v[:, None])
            worst = max(worst, abs(bl - wasserstein_distance(u, v)))
    checks.append(("bl-equals-w1", worst < 1e-9, f"max|Δ|={worst:.2e}"))

    gen = np.random.default_rng(20_241_018)  # leaves the data below as is
    worst = 0.0
    for _ in range(20):
        k, d = int(gen.integers(2, 8)), int(gen.integers(1, 4))
        a, b = gen.normal(size=(k, d)), gen.normal(0.3, size=(k, d))
        # duplicated rows in a, one of them shared with b
        a[gen.integers(k, size=k // 2)] = b[-1] = a[0]
        scale = float(gen.uniform(0.2, 5.0))
        cost = metrics.ground_metric(a[:, None, :], b[None, :, :], scale)
        perms = np.array(list(itertools.permutations(range(k))))
        best = cost[np.arange(k), perms].mean(axis=1).min()
        worst = max(worst, abs(metrics.bl_distance(a, b, scale=scale) - best))
    checks.append(("bl-assignment-exact", worst < 1e-12,
                   f"max|Δ|={worst:.2e} over all permutations, k <= 7"))

    pts = rng.normal(size=(60, 2)) * (1.0 + rng.uniform(size=2))
    cv = metrics.central_value(pts)
    resid = np.abs(np.arctan(pts - cv).mean(axis=0)).max()
    shift = np.array([3.25, -1.5])
    cv2 = metrics.central_value(pts + shift)
    equiv = float(np.abs(cv2 - (cv + shift)).max())
    ok = resid < 1e-10 and equiv < 1e-9
    checks.append(("central-value", ok,
                   f"residual={resid:.2e} equivariance={equiv:.2e}"))

    checks.append(_check_scale_conditional())

    lines = []
    for name, ok, detail in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    text = "\n".join(lines)
    print(text)
    if out:
        Path(out).write_text(text + "\n")
    return checks


def _check_scale_conditional():
    """Gamma conditional for the working scale vs grid normalization.

    Builds a small synthetic state, evaluates the unnormalized joint
    density of (latents, parameters, scale) on a grid in g^2 from first
    principles, normalizes numerically, and compares with the Gamma
    density the kernel samples from.
    """
    from scipy.integrate import simpson
    from scipy.stats import gamma as gamma_dist
    from scipy.stats import norm

    rng = np.random.default_rng(7)
    n, c, p = 40, 3, 1
    alpha = np.array([0.8])
    beta = np.array([-0.6])
    z = rng.normal(scale=0.9, size=n)
    x = rng.random((n, p))
    shape = model.A0 + (n + c - 2 + p) / 2.0
    rate = (model.B0 + 0.5 * np.sum((z + x @ beta) ** 2)
            + 0.5 * np.sum(alpha ** 2) / model.SIGMA_ALPHA ** 2
            + 0.5 * np.sum(beta ** 2) / model.SIGMA_BETA ** 2)
    mean = shape / rate
    sd = np.sqrt(shape) / rate
    ts = np.linspace(max(mean - 8 * sd, 1e-8), mean + 8 * sd, 4001)
    logs = []
    for t in ts:
        g = np.sqrt(t)
        lp = norm.logpdf(z, loc=-(x @ beta), scale=1.0 / g).sum()
        lp += norm.logpdf(alpha, scale=model.SIGMA_ALPHA / g).sum()
        lp += norm.logpdf(beta, scale=model.SIGMA_BETA / g).sum()
        lp += gamma_dist.logpdf(t, a=model.A0, scale=1.0 / model.B0)
        logs.append(lp)
    logs = np.asarray(logs)
    dens = np.exp(logs - logs.max())
    dens /= simpson(dens, x=ts)
    ref = gamma_dist.pdf(ts, a=shape, scale=1.0 / rate)
    inner = ref > ref.max() * 1e-6
    rel = np.max(np.abs(dens[inner] - ref[inner]) / ref[inner])
    return ("scale-conditional", bool(rel < 1e-8), f"max rel err={rel:.2e}")


def cmd_verify(args) -> int:
    checks = run_verify(out=args.out)
    return 0 if all(ok for _, ok, _ in checks) else 1


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmcdegen",
        description="Gibbs samplers for probit/cumulative-link models and "
                    "local consistency/degeneracy diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {"threads": "cells run at once, each in a worker process forked "
                        "from this one (Linux); 1 (the default) runs them "
                        "in this process"}

    def common(sp, *names):
        sp.add_argument("--config", help="JSON config file; flags override")
        sp.add_argument("--opt", action="append", metavar="KEY=VALUE",
                        help="extra option (repeatable)")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--out", help="output file or directory")
        for name in names:
            # --n and --c are comma lists on the plan commands
            kind = int if name in ("m", "R", "p", "threads") else str
            sp.add_argument(f"--{name}", type=kind, help=helps.get(name))

    sp = sub.add_parser("gen-data", help="sample a dataset to CSV")
    common(sp, "n", "c", "p")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("run-chain", help="run one recorded chain")
    common(sp, "n", "m", "c", "p", "variant")
    sp.add_argument("--reference", help="reference posterior CSV for "
                                        "stationary starts")
    sp.set_defaults(func=cmd_run_chain)

    sp = sub.add_parser("build-reference",
                        help="long-chain reference posterior sample")
    common(sp, "n", "c", "p")
    sp.set_defaults(func=cmd_build_reference)

    for command, text, summary, flags in (
            ("diagnose", "risk and one-step diagnostics", "diagnostics.csv",
             ("m", "R", "variant")),
            ("table1", "kernel classification table", "table1.csv",
             ("R", "variant")),
            ("figure", "trajectory figures", None, ("m", "scenario"))):
        sp = sub.add_parser(command, help=text)
        common(sp, "n", "c", "p", "threads", *flags)
        sp.set_defaults(func=cmd_plan, summary=summary)

    sp = sub.add_parser("verify", help="run the fast oracle suite")
    sp.add_argument("--out", help="also write the report to this file")
    sp.set_defaults(func=cmd_verify)

    return parser


_CONFIG_ERRORS = (ValueError, KeyError, FileNotFoundError,
                  json.JSONDecodeError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:  # failed plan cells too
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
