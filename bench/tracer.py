"""Outside-in tracing of the mcmcdegen layers.

Every public function of the six layer modules is replaced, at every
module of the package that holds it by name, with a wrapper that records a
span: wall time, the calling thread's CPU time, and the time of the spans
it caused, so self time and waiting (wall minus CPU) come out separately.
A few wrappers also count work at the boundary (draws, latents, support
points, pool draws). Nothing under ``src/`` is edited; ``install`` patches
module attributes and ``uninstall`` puts the originals back.

Spans are aggregated per thread while they run (a full span list for a
kernel-step loop would not fit in memory) and merged when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, thread_time

from mcmcdegen.sampling import DegenerateIntervalError

LAYERS = ("sampling", "model", "kernels", "asymptotics", "metrics", "harness")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class _ThreadState:
    """One thread's open spans and running totals."""

    def __init__(self, main: bool):
        self.main = main
        self.stack: list[list] = []     # [name, child wall, child cpu]
        # name -> [calls, wall, cpu, self wall, self cpu]
        self.spans: dict[str, list[float]] = defaultdict(lambda: [0] * 5)
        self.counts: dict[str, float] = defaultdict(float)
        self.last_top_end = -math.inf   # end of the last outermost span


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._names: set[str] = set()

    # ------------------------------------------------------------- spans

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.current_thread() is
                              threading.main_thread())
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name: str, fn, hook):
        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            frame = [name, 0.0, 0.0]
            parent = st.stack[-1] if st.stack else None
            st.stack.append(frame)
            t0, c0 = perf_counter(), thread_time()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, st.counts, fn, args, kwargs)
            finally:
                t1, c1 = perf_counter(), thread_time()
                wall, cpu = t1 - t0, c1 - c0
                st.stack.pop()
                rec = st.spans[name]
                rec[0] += 1
                rec[1] += wall
                rec[2] += cpu
                rec[3] += wall - frame[1]
                rec[4] += cpu - frame[2]
                if parent is None:
                    st.last_top_end = t1
                else:
                    parent[1] += wall
                    parent[2] += cpu

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> int:
        """Wrap every public layer function at every import site.

        Returns the number of wrapped functions. Raises if any module of
        the package still holds an original afterwards.
        """
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mcmcdegen.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(name, obj,
                                                          HOOKS.get(name)))
                    self._names.add(name)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))
        stale = [f"{mod.__name__}.{attr}" for mod in _package_modules()
                 for attr, obj in vars(mod).items()
                 if id(obj) in originals and originals[id(obj)][0] is obj]
        if stale:
            self.uninstall()
            raise RuntimeError(f"unwrapped originals remain: {stale}")
        return len(self._names)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # ------------------------------------------------------------- results

    def totals(self):
        """Merge every thread's spans and counters."""
        spans: dict[str, list[float]] = defaultdict(lambda: [0] * 5)
        counts: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.spans.items():
                acc = spans[name]
                for i, v in enumerate(rec):
                    acc[i] += v
            for key, v in st.counts.items():
                counts[key] += v
        return spans, counts

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics, per workload call (totals over ``reps``)."""
        spans, counts = self.totals()

        def span(name, i):
            # A renamed or moved function must fail the run, not read as 0.
            if name not in self._names:
                raise RuntimeError(f"{name} is not a traced function")
            return spans[name][i] / reps if name in spans else 0.0

        def calls(name):
            return span(name, 0)

        def cpu(name):
            return span(name, 2)

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        def count(key):
            return counts.get(key, 0.0) / reps

        out: dict[str, float] = {}
        ll = "model.log_likelihood_batch"
        out[f"{ll}.calls"] = calls(ll)
        out[f"{ll}.draw_obs"] = count(f"{ll}.draw_obs")
        out[f"{ll}.cpu_s"] = cpu(ll)
        out[f"{ll}.ns_per_draw_obs"] = per(cpu(ll), count(f"{ll}.draw_obs"),
                                           1e9)
        fi = "model.fisher_information"
        out[f"{fi}.calls"] = calls(fi)
        out[f"{fi}.cpu_s"] = cpu(fi)

        sir = "asymptotics.build_reference_sir"
        out[f"{sir}.calls"] = calls(sir)
        out[f"{sir}.cpu_s"] = cpu(sir)
        out[f"{sir}.pool_draws"] = count(f"{sir}.pool_draws")
        out[f"{sir}.ess_frac"] = per(count(f"{sir}.ess_frac"), calls(sir))
        out[f"{sir}.rounds"] = per(count(f"{sir}.rounds"), calls(sir))
        out["asymptotics.build_reference.cpu_s"] = cpu(
            "asymptotics.build_reference")

        ks = "kernels.kernel_step"
        out[f"{ks}.calls"] = calls(ks)
        out[f"{ks}.latents"] = count(f"{ks}.latents")
        out[f"{ks}.cpu_s"] = cpu(ks)
        out[f"{ks}.wait_s"] = span(ks, 1) - cpu(ks)
        out[f"{ks}.us_per_step"] = per(cpu(ks), calls(ks), 1e6)
        out[f"{ks}.ns_per_latent"] = per(cpu(ks), count(f"{ks}.latents"), 1e9)
        for part in ("draw_latent", "update_g", "update_theta_beta",
                     "update_theta_null", "run_chain"):
            out[f"kernels.{part}.cpu_s"] = cpu(f"kernels.{part}")

        tn = "sampling.truncated_normal_vec"
        out[f"{tn}.calls"] = calls(tn)
        out[f"{tn}.draws"] = count(f"{tn}.draws")
        out[f"{tn}.ns_per_draw"] = per(cpu(tn), count(f"{tn}.draws"), 1e9)
        out[f"{tn}.degenerate"] = count(f"{tn}.degenerate")
        out["sampling.truncated_normal_extended.calls"] = calls(
            "sampling.truncated_normal_extended")
        out["sampling.gamma_draw.calls"] = calls("sampling.gamma_draw")

        bl = "metrics.bl_distance"
        out[f"{bl}.calls"] = calls(bl)
        out[f"{bl}.cpu_s"] = cpu(bl)
        out[f"{bl}.support_mean"] = per(count(f"{bl}.support"), calls(bl))
        out[f"{bl}.resampled"] = count(f"{bl}.resampled")
        for part in ("one_step_statistic", "estimate_R", "estimate_Rprime",
                     "central_value"):
            out[f"metrics.{part}.cpu_s"] = cpu(f"metrics.{part}")

        out["harness.orchestrate.wall_s"] = span("harness.orchestrate", 1)
        for key in ("tail_s", "cells", "files", "bytes"):
            out[f"harness.{key}"] = count(f"harness.{key}")
        # Waiting inside spans: GIL, scheduler, I/O. orchestrate's own
        # waiting is for its cells on the pool threads, so it is left out.
        out["trace.wait_s"] = sum(rec[3] - rec[4] for name, rec
                                  in spans.items()
                                  if name != "harness.orchestrate") / reps
        return out

    def table(self) -> list[dict]:
        """Every traced function's totals, for the run record."""
        spans, _ = self.totals()
        return [{"name": name, "calls": int(rec[0]), "wall_s": rec[1],
                 "cpu_s": rec[2], "self_wall_s": rec[3], "self_cpu_s": rec[4]}
                for name, rec in sorted(spans.items(), key=lambda kv: -kv[1][2])]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mcmcdegen"
                                    or name.startswith("mcmcdegen."))]


# --------------------------------------------------------------------------
# hooks: count work at the boundary. Each takes (tracer, counts, fn, args,
# kwargs) and returns what fn returns.

def _log_likelihood_batch(tracer, counts, fn, args, kwargs):
    out = fn(*args, **kwargs)
    data = _arg(args, kwargs, 3, "data")
    counts["model.log_likelihood_batch.draw_obs"] += len(out) * data.n
    return out


def _build_reference_sir(tracer, counts, fn, args, kwargs):
    if _arg(args, kwargs, 6, "info") is None:
        if len(args) > 6:
            args = args[:6] + ({},) + args[7:]
        else:
            kwargs = dict(kwargs, info={})
    info = _arg(args, kwargs, 6, "info")
    out = fn(*args, **kwargs)
    inflate = _arg(args, kwargs, 5, "inflate", 1.6)
    # The proposal scale grows by 1.5 per inflation round; ``info`` holds
    # the scale of the kept round, which is the last one run unless all
    # three rounds missed the ESS target.
    rounds = 1 + round(math.log(info["inflate"] / inflate) / math.log(1.5))
    key = "asymptotics.build_reference_sir"
    counts[f"{key}.pool_draws"] += info["pool"] * rounds
    counts[f"{key}.ess_frac"] += info["ess"] / info["pool"]
    counts[f"{key}.rounds"] += rounds
    return out


def _kernel_step(tracer, counts, fn, args, kwargs):
    out = fn(*args, **kwargs)
    data = _arg(args, kwargs, 1, "data")
    counts["kernels.kernel_step.latents"] += out.batch * data.n
    return out


def _truncated_normal_vec(tracer, counts, fn, args, kwargs):
    try:
        out = fn(*args, **kwargs)
    except DegenerateIntervalError:
        counts["sampling.truncated_normal_vec.degenerate"] += 1
        raise
    counts["sampling.truncated_normal_vec.draws"] += out.size
    return out


def _bl_distance(tracer, counts, fn, args, kwargs):
    out = fn(*args, **kwargs)
    counts["metrics.bl_distance.support"] += out.support
    counts["metrics.bl_distance.resampled"] += bool(out.resampled)
    return out


def _orchestrate(tracer, counts, fn, args, kwargs):
    t0 = perf_counter()
    manifest = fn(*args, **kwargs)
    t1 = perf_counter()
    # Cells run on pool threads; the last of their outermost spans to end
    # marks the start of the tail (reduce, hashing, manifest).
    with tracer._lock:
        ends = [st.last_top_end for st in tracer._states
                if not st.main and t0 <= st.last_top_end <= t1]
    if ends:
        counts["harness.tail_s"] += t1 - max(ends)
    plan = _arg(args, kwargs, 0, "plan")
    out_dir = Path(plan.out_dir)
    counts["harness.cells"] += sum("seconds" in cell
                                   for cell in manifest.cells.values())
    counts["harness.files"] += len(manifest.files)
    counts["harness.bytes"] += sum((out_dir / f).stat().st_size
                                   for f in manifest.files)
    return manifest


HOOKS = {
    "model.log_likelihood_batch": _log_likelihood_batch,
    "asymptotics.build_reference_sir": _build_reference_sir,
    "kernels.kernel_step": _kernel_step,
    "sampling.truncated_normal_vec": _truncated_normal_vec,
    "metrics.bl_distance": _bl_distance,
    "harness.orchestrate": _orchestrate,
}
