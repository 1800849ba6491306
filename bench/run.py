"""One-command benchmark for mcmcdegen.

    python3 bench/run.py --workload table1-c3 --seed 1 --seconds 20 --trace 0

Runs one workload (``table1-c3``, ``diagnose-risk`` or ``reference-chain``,
see ``workloads.py``) in a fresh worker process with OpenBLAS/OpenMP pinned
to one thread. Set-up (process start to the first library call) is timed in
the worker and in three set-up-only probes, and reported as the median. The
worker runs the oracle suite once, then repeats the workload's library call
for ``--seconds`` and checks every repetition's outputs and digest.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the worker times half the budget untraced and half with every public
function of the six layers wrapped (``tracer.py``), and the per-layer
metrics are reported. Metric names and units come from BENCHMARK.json.
Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A record of the run, with the environment, the output digest and the full
span table, is written to ``.bench_out/``. Every repetition of a run,
timed or traced, must produce the same output digest; otherwise all
repetitions count as failed. The digest is recorded as information only and
is not compared across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
PROBES = 3
# Time allowed on top of --seconds for set-up probes, the oracle suite and
# the call that overruns the budget.
SLACK_S = 140.0


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def _spawn(args, work_dir: Path, out: Path, probe: bool, timeout: float):
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out", str(out)]
    if probe:
        cmd.append("--probe")
    cmd += ["--spawned-at", repr(time.monotonic())]
    subprocess.run(cmd, env=env, check=True, timeout=timeout,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mcmcdegen" / "__init__.py").is_file():
        print(f"error: no mcmcdegen sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + SLACK_S
    out_root = ROOT / ".bench_out"
    work_dir = out_root / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_spawn(args, work_dir, work_dir / f"probe{i}.json", True,
                         deadline - time.monotonic())["setup_s"]
                  for i in range(PROBES)]
        res = _spawn(args, work_dir, work_dir / "worker.json", False,
                     deadline - time.monotonic())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(res["setup_s"])

    reps = res["reps"]
    # Repetitions whose call raised have no digest; they count as failed.
    digests = sorted({r["digest"] for r in reps if r["digest"]})
    failed = sum(bool(r["problems"]) for r in reps)
    if len(digests) > 1:
        failed = len(reps)       # no result can be trusted
    failed += bool(res["verify_failed"])
    attempted = len(reps) + 1    # the repetitions and the oracle suite

    timed = [r for r in reps if not r["traced"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    cells = [r["worst_cell_s"] for r in timed if "worst_cell_s" in r]
    if cells:
        values["worst_cell_s"] = statistics.median(cells)
    values.update(res.get("layers", {}))

    kind = "per_layer" if args.trace else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing and not failed:
        print(f"error: metrics {missing} were not measured", file=sys.stderr)
        return 1
    # A metric can be missing only because every call failed; the result
    # line then reports the failures with the metrics that were measured.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in values}

    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), **res["versions"],
           "git_sha": _git_sha(), "seed": args.seed, "pinned": PINNED}
    record = {"workload": args.workload, "env": env, "digests": digests,
              "setup_s": setups,
              "verify_failed": res["verify_failed"], "reps": reps,
              "metrics": metrics, "wrapped": res.get("wrapped"),
              "spans": res.get("spans")}
    (out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  reps {len(reps)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("digest " + " ".join(digests)
          + (" MISMATCH" if len(digests) > 1 else ""))
    for r in reps:
        for p in r["problems"]:
            print(f"FAIL {p}")
    for p in res["verify_failed"]:
        print(f"FAIL verify {p}")
    walls = sorted(r["wall_s"] for r in timed)
    print(f"wall_s of {len(walls)} untraced reps: "
          + " ".join(f"{w:.3f}" for w in walls))
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"{'fail_frac':48s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
