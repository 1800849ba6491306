"""One benchmark process: set up, verify, then time repetitions.

Started by ``run.py`` as a fresh interpreter with ``src`` on the path and
the BLAS thread pools pinned to one thread. Writes its measurements as
JSON to ``--out``. With ``--probe`` it stops once set up, so ``run.py``
can time set-up several times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _repeat(workload, work_dir: Path, seconds: float,
            traced: bool) -> list[dict]:
    """Call the workload as often as fits in ``seconds`` (at least once).

    Another call starts only if, at the mean duration so far, it would end
    within the budget, so a run lasts about ``seconds`` whatever the call
    duration.
    """
    reps = []
    start = time.perf_counter()
    while True:
        out_dir = work_dir / "rep"
        out_dir.mkdir(parents=True)
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            result, error = workload.call(out_dir), None
        except Exception as exc:  # a failed call is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
        rep = {"wall_s": wall, "cpu_s": cpu, "traced": traced,
               "digest": None, "problems": [error] if error else []}
        if error is None:
            try:
                rep["digest"], rep["problems"] = workload.check(result, out_dir)
                # A workload of one cell reports the call's own wall time.
                rep["worst_cell_s"] = (workload.worst_cell_s(result)
                                       if workload.worst_cell_s else wall)
            except Exception as exc:  # an unreadable output is a wrong one
                rep["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
        shutil.rmtree(out_dir)
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    from mcmcdegen import cli
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.probe:
        args.out.write_text(json.dumps(result))
        return 0

    with contextlib.redirect_stdout(io.StringIO()):
        checks = cli.run_verify()
    result["verify_failed"] = [f"{name}: {detail}" for name, ok, detail
                               in checks if not ok]
    result["versions"] = {"numpy": numpy.__version__,
                          "scipy": scipy.__version__}

    if args.trace:
        # Untraced first, for the overhead baseline, then traced.
        from tracer import Tracer

        half = args.seconds / 2
        reps = _repeat(workload, args.work_dir, half, False)
        tracer = Tracer()
        result["wrapped"] = tracer.install()
        try:
            traced = _repeat(workload, args.work_dir, half, True)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(len(traced))
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in reps) - 1.0)
        result["layers"] = layers
        result["spans"] = tracer.table()
        reps += traced
    else:
        reps = _repeat(workload, args.work_dir, args.seconds, False)
    result["reps"] = reps
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
