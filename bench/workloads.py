"""The benchmark's workloads.

Each workload builds its inputs from the master seed once (the
constructor), then every repetition makes one blocking library call, the
same call its CLI subcommand makes (``call``), and checks what that call
produced (``check``). A check returns the repetition's output digest and
the list of problems found; any problem counts the repetition as failed.

Sizes are chosen so one repetition takes seconds on a 2-CPU machine while
each workload keeps the layer mix it exists to measure (the ``why`` of each
workload in BENCHMARK.json).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from mcmcdegen import asymptotics, harness, model
from mcmcdegen.metrics import DiagnosticsReport
from mcmcdegen.sampling import RngStream

# The paper's c = 3 row of the classification table.
PAPER_C3_ROW = {"null/c3": "X", "beta/c3": "X", "null-ma/c3": "X",
                "beta-ma/c3": "O"}

# table1 slice at c = 3: R = 36 over 4 datasets keeps 9 x 16 = 144 chains
# per kernel step, as at the full size (R = 50 over 6 datasets). With only
# 2 datasets the cluster-robust s.e. left null-ma inconclusive for about one
# seed in 30; with 4, every X certificate cleared 3 s.e. by a factor >= 1.7
# on the seeds tried. A pool of 8192 keeps the SIR reference banks (pool
# log-likelihoods) at about two thirds of the layer CPU time, the share
# they have at the full size; at 2048 the kernel steps took the larger part.
TABLE1 = {"R": 36, "options": {"datasets": 4, "bank_size": 512,
                               "pool": 8192}}
DIAGNOSE = {"R": 3, "options": {"with_risk": True}}
# n = 100: at n = 400 the beta kernel's slowly moving cut point trips the
# split-half KS guard for about one seed in four even at length 20 000.
# Length 5000 after the default 10 000 burn-in leaves the sweep loop about a
# third of the call next to the p = 2 Monte Carlo Fisher information.
REFERENCE = {"c": 3, "p": 2, "n": 100, "length": 5_000}


class HarnessWorkload:
    """A harness plan run by ``orchestrate`` into a fresh directory."""

    def __init__(self, scenario: str, seed: int, **plan):
        self.plan = harness.make_plan(scenario, master_seed=seed, threads=2,
                                      **plan)

    def call(self, out_dir: Path):
        plan = dataclasses.replace(self.plan, out_dir=str(out_dir))
        return harness.orchestrate(plan)

    def check(self, manifest, out_dir: Path) -> tuple[str, list[str]]:
        problems = [f"cell {key} failed" for key, cell in manifest.cells.items()
                    if "error" in cell]
        problems += self.check_outputs(manifest, out_dir)
        files = json.dumps(manifest.files, sort_keys=True).encode()
        return hashlib.sha256(files).hexdigest(), problems

    @staticmethod
    def worst_cell_s(manifest) -> float:
        return max(cell["seconds"] for cell in manifest.cells.values()
                   if "seconds" in cell)


class Table1C3(HarnessWorkload):
    def __init__(self, seed: int):
        super().__init__("table1", seed, c_list=(3,), **TABLE1)

    def check_outputs(self, manifest, out_dir: Path) -> list[str]:
        detail = json.loads((out_dir / "table1.json").read_text())
        labels = {cell: info["label"] for cell, info in detail.items()}
        if labels != PAPER_C3_ROW:
            return [f"labels {labels} != paper row {PAPER_C3_ROW}"]
        return []


class DiagnoseRisk(HarnessWorkload):
    def __init__(self, seed: int):
        super().__init__("diagnose", seed, **DIAGNOSE)

    def check_outputs(self, manifest, out_dir: Path) -> list[str]:
        problems = []
        reports = {}
        for f in manifest.files:
            if f.endswith(".json"):
                reports[f] = DiagnosticsReport.load(out_dir / f)
        if len(reports) != 3 * len(self.plan.n_list):
            problems.append(f"expected 3 reports per n, got {sorted(reports)}")
        for f, rep in sorted(reports.items()):
            for key, est in rep.estimates.items():
                value, se = est["value"], est["se"]
                if not (math.isfinite(value) and math.isfinite(se)):
                    problems.append(f"{f}: {key} not finite ({value}, {se})")
                elif not 0.0 <= value <= 1.0:
                    problems.append(f"{f}: {key}={value} outside [0, 1]")
            # The metric is monotone in its scale, so localizing (scale
            # sqrt(n) >= 1) can only raise a distance.
            for base in ("R", "Rprime"):
                if base in rep.estimates and (rep.value(f"{base}_localized")
                                              < rep.value(base)):
                    problems.append(f"{f}: {base}_localized < {base}")
        return problems


class ReferenceChain:
    """``build_reference`` as the ``build-reference`` subcommand runs it."""

    def __init__(self, seed: int):
        c, p, n = REFERENCE["c"], REFERENCE["p"], REFERENCE["n"]
        self.cfg = model.ModelConfig(c=c, covariates=model.CovariateSpec(p=p))
        root = RngStream(seed, "build-reference")
        self.data = model.sample_dataset(self.cfg, harness.default_theta0(c, p),
                                         n, seed=root.child("data").seed_int())
        self.chain_seed = root.child("mcmc").seed_int()

    def call(self, out_dir: Path):
        return asymptotics.build_reference(self.cfg, self.data,
                                           seed=self.chain_seed,
                                           length=REFERENCE["length"])

    def check(self, ref, out_dir: Path) -> tuple[str, list[str]]:
        problems = [f"KS guard: {w}" for w in ref.warnings]
        p = ref.provenance["split_half_ks_p"]
        if not p >= 1e-3:
            problems.append(f"split-half KS p={p:.3g} < 1e-3")
        return hashlib.sha256(ref.sample.tobytes()).hexdigest(), problems

    worst_cell_s = None     # one cell: the call itself


WORKLOADS = {"table1-c3": Table1C3, "diagnose-risk": DiagnoseRisk,
             "reference-chain": ReferenceChain}
