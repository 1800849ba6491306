"""Experiment harness: plans, parallel execution, and deterministic outputs.

A plan names a scenario and pins every knob that affects the numbers,
plus a master seed; ``make_plan`` overlays the caller's choices on the
scenario's default grid. Every scenario runs one cell per (variant, c, n),
and diagnose and custom one per (variant, c, n, statistic); the scenarios
differ only in what a cell computes (a recorded chain for the figures,
statistics for table1, diagnose and custom) and in the summary built from
the cells (``_REDUCERS``). The true parameters and the figures' displaced
starts are fixed designs (``DEFAULT_THETA0``, ``ORDINAL_TRACE_START``);
``SCENARIO_OPTIONS`` lists the few estimator settings a plan may carry.
``make_plan`` runs its cells' entry checks (``metrics.check_settings``,
``kernels.check_variant``) before any work.

Cells run ``plan.threads`` at a time in worker processes forked from the
caller (Linux), or in the calling process when one runs at a time, and
each cell writes one file, whose name and bytes depend only on the cell.
A manifest records the resolved configuration, per-cell timings and the
sha256 of every file written; the calling process alone records the cells
and saves it as each cell finishes, so a run that stops partway keeps its
finished cells. The summary (figure or table) is always built from the
cell files read back from disk. Re-running a plan skips every cell whose
files still carry their recorded digests.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import multiprocessing
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import svg
from .kernels import (VariantId, check_variant, load_trace, run_chain,
                      trace_filename, transform_dim)
from .metrics import (TABLE1_N, DiagnosticsReport, check_settings,
                      classify_table1, estimate_R, estimate_Rprime,
                      one_step_statistic, table1_transform)
from .model import CovariateSpec, ModelConfig, Theta, sample_dataset
from .sampling import RngStream, check_count

__all__ = [
    "DEFAULT_THETA0", "ExperimentPlan", "RunManifest", "default_theta0",
    "emit_figure", "make_plan", "orchestrate",
]

#: True parameters of the scenarios' datasets: chosen to keep every
#: outcome category well populated so localized motion is not dominated by
#: a single rarely-updated cut.
DEFAULT_THETA0 = {
    2: Theta(alpha=(), beta=(2.0,)),
    3: Theta(alpha=(1.0,), beta=(-1.0,)),
    4: Theta(alpha=(0.7, 1.4), beta=(-1.0,)),
}

#: Displaced start for the ordinal trace figures: the cut ratio starts at
#: 3 while the truth is 2, so a frozen ratio is visible immediately.
ORDINAL_TRACE_START = Theta(alpha=(0.3, 0.9), beta=(-0.5,))

#: Each scenario's default grid, overlaid by ``make_plan``'s keywords. A
#: figure draws a fixed pair of kernels; ``custom`` takes its grid from
#: the caller.
_DEFAULTS = {
    "fig1": dict(variants=("binary-null", "binary-beta"), n_list=(100, 1000),
                 c_list=(2,)),
    "fig2": dict(variants=("beta", "beta-ma"), n_list=(1000,), c_list=(4,)),
    "fig3": dict(variants=("beta", "beta-ma"), n_list=(1000,), m=1000,
                 c_list=(4,)),
    "table1": dict(variants=("null", "beta", "null-ma", "beta-ma"),
                   n_list=(100, 400, 1600), c_list=(2, 3, 4)),
    "diagnose": dict(variants=("binary-null",), n_list=(100, 400), R=8,
                     c_list=(2,)),
    "custom": dict(R=8),
}
_FIGURES = ("fig1", "fig2", "fig3")

_DIAGNOSE_OPTIONS = ("inner", "starts", "bank_size", "pool", "with_risk",
                     "reference_size")
#: The ``options`` keys each scenario's cells read; ``make_plan`` refuses
#: others.
SCENARIO_OPTIONS = {
    **{fig: () for fig in _FIGURES},
    "table1": ("datasets", "inner", "starts", "bank_size", "pool"),
    "diagnose": _DIAGNOSE_OPTIONS,
    "custom": _DIAGNOSE_OPTIONS,
}


def default_theta0(c: int, p: int = 1) -> Theta:
    """True-parameter design for a given number of outcome categories."""
    if p == 1 and c in DEFAULT_THETA0:
        return DEFAULT_THETA0[c]
    alpha = tuple(0.7 * j for j in range(1, c - 1))
    return Theta(alpha=alpha, beta=(2.0 if c == 2 else 1.0,) * p)


@dataclass(frozen=True)
class ExperimentPlan:
    """Fully resolved description of one harness run."""

    scenario: str
    master_seed: int = 20_240_817
    out_dir: str = "out"
    threads: int = 1
    n_list: tuple[int, ...] = ()
    m: int = 200
    R: int = 50
    variants: tuple[str, ...] = ()
    c_list: tuple[int, ...] = ()
    p: int = 1
    options: dict = field(default_factory=dict)

    def config_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("threads")        # execution detail, not part of the results
        d.pop("out_dir")
        return d


def check_option_keys(options: dict, known, owner: str) -> None:
    """Refuse option keys that ``owner`` (a scenario or a CLI subcommand)
    does not read, so a misspelt key cannot run with the default."""
    unknown = sorted(set(options) - set(known))
    if unknown:
        raise ValueError(f"unknown option {', '.join(map(repr, unknown))} for "
                         f"{owner}; known: {', '.join(known) or 'none'}")


def make_plan(scenario: str, **kw) -> ExperimentPlan:
    """Build a plan from scenario defaults overlaid with keyword choices;
    a setting that any (variant, c) cell would refuse is refused here, and
    so are an empty or repeated grid value, a negative count and a table1
    grid without ``TABLE1_N``."""
    if scenario not in _DEFAULTS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of "
                         f"{', '.join(_DEFAULTS)}")
    options = dict(kw.get("options") or {})
    check_option_keys(options, SCENARIO_OPTIONS[scenario], scenario)
    defaults = dict(_DEFAULTS[scenario], scenario=scenario)
    defaults.update({k: v for k, v in kw.items() if v is not None})
    defaults["options"] = options
    plan = ExperimentPlan(**defaults)
    if scenario == "custom" and not (plan.variants and plan.c_list
                                     and plan.n_list):
        raise ValueError("scenario 'custom' carries no defaults; pass "
                         "variants, c_list and n_list explicitly")
    if scenario in _FIGURES and len(plan.c_list) != 1:
        raise ValueError(f"scenario {scenario!r} draws one number of "
                         f"categories; got c_list={tuple(plan.c_list)}")
    if scenario in _FIGURES and (tuple(plan.variants)
                                 != _DEFAULTS[scenario]["variants"]):
        raise ValueError(
            f"scenario {scenario!r} draws the variants "
            f"{', '.join(_DEFAULTS[scenario]['variants'])}; got "
            f"{', '.join(plan.variants)}")
    for name in ("variants", "c_list", "n_list"):  # one cell per combination
        axis = tuple(getattr(plan, name))
        if not axis or len(set(axis)) < len(axis):
            raise ValueError(f"{name} needs one or more values, none "
                             f"repeated; got {axis}")
    for n in plan.n_list:
        check_count("n", n)
    check_count("m", plan.m, 0)
    check_count("threads", plan.threads)
    one_step_counts = {k: v for k, v in plan.options.items()
                       if k in ("datasets", "inner", "starts")}
    for c in plan.c_list:
        cfg = _model(plan, c)  # refuses c < 2 and p < 1
        for variant in map(VariantId.parse, plan.variants):
            check_variant(variant, c)
            if scenario in ("fig2", "fig3"):  # they plot the cut ratios
                transform_dim("alpha-ratio", c, plan.p)
            elif scenario not in _FIGURES:
                transform = table1_transform(variant, c)
                check_settings(variant, cfg, transform, plan.R,
                               m=None if scenario == "table1" else plan.m,
                               reference_size=_reference_rows(plan),
                               **_sir_sizes(plan), **one_step_counts)
                if scenario != "table1":  # estimate_Rprime's banks: SIR_POOL
                    check_settings(variant, cfg, transform, plan.R, m=plan.m,
                                   bank_size=_sir_sizes(plan)["bank_size"])
    if scenario == "table1" and not set(TABLE1_N) <= set(plan.n_list):
        raise ValueError(f"table1 labels each kernel on n = {list(TABLE1_N)}; "
                         f"got n_list={tuple(plan.n_list)}")
    return plan


# --------------------------------------------------------------------------
# manifest

def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Record of a harness run: configuration, files, timings."""

    scenario: str
    config: dict
    cells: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    version: str = ""

    def save(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        tmp.replace(path)

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        with open(path) as fh:
            d = json.load(fh)
        return cls(scenario=d["scenario"], config=d["config"],
                   cells=d.get("cells", {}), files=d.get("files", {}),
                   version=d.get("version", ""))

    def cell_done(self, key: str, out_dir: Path) -> bool:
        """Whether the cell finished and its files still carry the sha256
        recorded for them."""
        files = self.cells.get(key, {}).get("files")
        return bool(files) and all(
            (out_dir / f).exists()
            and self.files.get(f) == _sha256_file(out_dir / f)
            for f in files)

    def record(self, key: str, out_dir: Path, files: list[str] | None = None,
               error: str | None = None,
               seconds: float | None = None) -> None:
        """Set one cell's outcome, its files or its error; ``files`` keeps
        the sha256 of exactly the files that cells list."""
        entry = self.cells.setdefault(key, {})
        for f in entry.pop("files", ()):
            self.files.pop(f, None)
        entry.pop("error", None)
        if error is None:
            entry["files"] = files
            self.files.update((f, _sha256_file(out_dir / f)) for f in files)
        else:
            entry["error"] = error
        if seconds is not None:
            entry["seconds"] = round(seconds, 3)


# --------------------------------------------------------------------------
# cells: _grid_cells pairs each key with a task() -> payload, built from
# the plan's cell bodies; _cell_files writes the payload, _read_cell reads
# it back for the scenario's reducer.

def _model(plan: ExperimentPlan, c: int) -> ModelConfig:
    return ModelConfig(c=c, covariates=CovariateSpec(p=plan.p))


def _sir_sizes(plan: ExperimentPlan) -> dict:
    """The bank size and pool of a table1 or diagnose cell's SIR banks."""
    table1 = plan.scenario == "table1"
    return {"bank_size": plan.options.get("bank_size", 1024 if table1 else 512),
            "pool": plan.options.get("pool", 16384 if table1 else 8192)}


def _reference_rows(plan: ExperimentPlan) -> int | None:
    """The reference rows of a diagnose cell's R, or None without R."""
    opts = plan.options
    return opts.get("reference_size", 512) if opts.get("with_risk") else None


def _grid_cells(plan: ExperimentPlan):
    """One cell per (variant, c, n) and body of ``_cell_bodies``, keyed
    ``{scenario}/{variant}/c{c}/n{n}`` plus ``/{stat}`` for a named body;
    the bodies of one (variant, c, n) share its stream's seed, and a cell
    runs ``body(plan, variant, cfg, theta0, n, transform, seed)``."""
    bodies = _cell_bodies(plan)
    cells = []
    for c in plan.c_list:
        cfg = _model(plan, c)
        theta0 = default_theta0(c, plan.p)
        for variant in map(VariantId.parse, plan.variants):
            transform = table1_transform(variant, c)
            for n in plan.n_list:
                seed = RngStream(plan.master_seed, plan.scenario, variant.name,
                                 c, n).seed_int()
                key = f"{plan.scenario}/{variant.name}/c{c}/n{n}"
                for stat, body in bodies.items():
                    cells.append((f"{key}/{stat}" if stat else key,
                                  functools.partial(body, plan, variant, cfg,
                                                    theta0, n, transform,
                                                    seed)))
    return cells


def _trace_cell(plan, variant, cfg, theta0, n, transform, seed):
    """A figure's cell: one recorded chain from a displaced fixed start, on
    the dataset every variant of the figure shares at this n (so the
    figure's streams, not the cell's ``seed``)."""
    root = RngStream(plan.master_seed, plan.scenario)
    data = sample_dataset(cfg, theta0, n, seed=root.child("data", n).seed_int())
    start = (Theta(alpha=(), beta=(1.5,) * plan.p) if cfg.c == 2
             else ORDINAL_TRACE_START)
    return {"trace": run_chain(cfg, data, variant, plan.m,
                               root.child("chain", variant.name, n),
                               theta=start), "n": n}


def _table1_cell(plan, variant, cfg, theta0, n, transform, seed):
    opts = plan.options
    return one_step_statistic(
        variant, cfg, n, plan.R, transform, seed, theta0=theta0,
        datasets=opts.get("datasets", 6), inner=opts.get("inner", 16),
        starts=opts.get("starts", 16), **_sir_sizes(plan))


def _one_step_cell(plan, variant, cfg, theta0, n, transform, seed):
    opts = plan.options
    return one_step_statistic(
        variant, cfg, n, plan.R, transform, seed, theta0=theta0,
        inner=opts.get("inner", 12), starts=opts.get("starts", 4),
        **_sir_sizes(plan))


def _risk_prime_cell(plan, variant, cfg, theta0, n, transform, seed):
    return estimate_Rprime(
        variant, cfg, n, plan.m, plan.R, seed, theta0=theta0,
        transform=transform, bank_size=_sir_sizes(plan)["bank_size"])


def _risk_cell(plan, variant, cfg, theta0, n, transform, seed):
    return estimate_R(
        variant, cfg, n, plan.m, plan.R, _reference_rows(plan), seed,
        theta0=theta0, transform=transform)


def _cell_bodies(plan: ExperimentPlan) -> dict:
    """A plan's cell bodies by key suffix: one unnamed body for a figure or
    table1, one per statistic for diagnose and custom (R only when the plan
    carries a reference size)."""
    if plan.scenario in _FIGURES:
        return {"": _trace_cell}
    if plan.scenario == "table1":
        return {"": _table1_cell}
    bodies = {"one_step": _one_step_cell, "risk_prime": _risk_prime_cell}
    if _reference_rows(plan) is not None:
        bodies["risk"] = _risk_cell
    return bodies


# --------------------------------------------------------------------------
# cell files and reducers

def _cell_files(plan: ExperimentPlan, key: str, payload,
                out_dir: Path) -> list[str]:
    """Write one finished cell's file; its name and bytes depend only on
    the cell."""
    if plan.scenario in _FIGURES:
        trace = payload["trace"]
        fname = trace_filename(trace.variant, payload["n"])
        trace.save(out_dir / fname)
        return [fname]
    fname = key.replace("/", "_") + ".json"
    payload.save(out_dir / fname)
    return [fname]


def _read_cell(plan: ExperimentPlan, files: list[str], out_dir: Path):
    """Read a finished cell back from the file ``_cell_files`` wrote:
    trace columns or a report."""
    if plan.scenario in _FIGURES:
        return load_trace(out_dir / files[0])
    return DiagnosticsReport.load(out_dir / files[0])


def emit_figure(plan: ExperimentPlan, traces: dict,
                out_dir: Path) -> list[str]:
    """Render trajectory panels from recorded chains into
    ``{scenario}.svg``.

    ``traces`` maps cell keys to the columns ``load_trace`` reads; the
    plan's variants are the figure's pair, the first drawn solid. fig1:
    one panel per sample size; the slope trajectory of both binary
    samplers. fig2: one panel per parameter (two cuts and the slope);
    solid without the rescaling move, dashed with it (plotting its
    identified trajectory). fig3: one panel, the ratio of the third to the
    second cut.
    """
    c = plan.c_list[0]
    theta0 = default_theta0(c, plan.p)
    panels = []
    if plan.scenario == "fig1":
        for n in plan.n_list:
            series = []
            for name, dash in zip(plan.variants, (False, True)):
                slope = traces[f"fig1/{name}/c{c}/n{n}"]["beta1"]
                series.append(svg.Series(
                    name=name, x=np.arange(slope.size, dtype=float),
                    y=slope, dashed=dash))
            panels.append(svg.Panel(
                title=f"slope trajectory, n={n}", series=series,
                hline=theta0.beta[0], ylabel="slope"))
    elif plan.scenario == "fig2":
        n = plan.n_list[0]
        raw, ma = (traces[f"fig2/{v}/c{c}/n{n}"] for v in plan.variants)
        labels = [("second cut", "alpha2", theta0.alpha[0]),
                  ("third cut", "alpha3", theta0.alpha[1]),
                  ("slope", "beta1", theta0.beta[0])]
        x = np.arange(raw["step"].size, dtype=float)
        for title, col, truth in labels:
            panels.append(svg.Panel(
                title=f"{title} trajectory, n={n}",
                series=[svg.Series("without rescale", x, raw[col],
                                   dashed=False),
                        svg.Series("with rescale", x, ma[f"g{col}"],
                                   dashed=True)],
                hline=truth, ylabel=title))
    elif plan.scenario == "fig3":
        n = plan.n_list[0]
        raw, ma = (traces[f"fig3/{v}/c{c}/n{n}"] for v in plan.variants)
        x = np.arange(raw["step"].size, dtype=float)
        panels.append(svg.Panel(
            title=f"cut-ratio trajectory, n={n}",
            series=[svg.Series("without rescale", x, raw["ratio32"],
                               dashed=False),
                    svg.Series("with rescale", x, ma["ratio32"],
                               dashed=True)],
            hline=theta0.alpha[1] / theta0.alpha[0], ylabel="third/second cut"))
    else:
        raise ValueError(f"scenario {plan.scenario!r} has no figure")
    svg.line_plot(panels, out_dir / f"{plan.scenario}.svg")
    return [f"{plan.scenario}.svg"]


def _reduce_table1(plan: ExperimentPlan, reports: dict,
                   out_dir: Path) -> list[str]:
    grouped: dict[tuple[str, int], dict[int, DiagnosticsReport]] = {}
    for key, rep in reports.items():
        _, name, ctag, ntag = key.split("/")
        cell = (name, int(ctag[1:]))
        grouped.setdefault(cell, {})[int(ntag[1:])] = rep
    labels = classify_table1(grouped)
    order = {name: i for i, name in enumerate(plan.variants)}
    rows = ["variant,c,n,D,se,label"]
    for (name, c) in sorted(grouped, key=lambda t: (order[t[0]], t[1])):
        lab = labels[(name, c)]["label"]
        for n in sorted(grouped[(name, c)]):
            rep = grouped[(name, c)][n]
            rows.append(f"{name},{c},{n},{rep.value('D'):.17g},"
                        f"{rep.se('D'):.17g},{lab}")
    (out_dir / "table1.csv").write_text("\n".join(rows) + "\n")
    detail = {f"{name}/c{c}": info for (name, c), info in labels.items()}
    with open(out_dir / "table1.json", "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return ["table1.csv", "table1.json"]


def _reduce_diagnose(plan: ExperimentPlan, reports: dict,
                     out_dir: Path) -> list[str]:
    rows = ["variant,c,n,statistic,value,se"]
    # by (variant, c, n) and then statistic, so n60 comes before n600
    for key in sorted(reports, key=lambda k: k.rsplit("/", 1)):
        _, name, ctag, ntag, stat = key.split("/")
        rep = reports[key]
        for est in sorted(rep.estimates):
            rows.append(f"{name},{ctag[1:]},{ntag[1:]},{stat}:{est},"
                        f"{rep.value(est):.17g},{rep.se(est):.17g}")
    (out_dir / "diagnostics.csv").write_text("\n".join(rows) + "\n")
    return ["diagnostics.csv"]


#: The reducer that builds each scenario's summary from its cells.
_REDUCERS = {**dict.fromkeys(_FIGURES, emit_figure),
             "table1": _reduce_table1, "diagnose": _reduce_diagnose,
             "custom": _reduce_diagnose}


# --------------------------------------------------------------------------
# execution

#: In a forked worker, the parent's cell runner (``key -> (files, error,
#: seconds)``), set by ``_start_worker``.
_worker_run = None


def _start_worker(run) -> None:
    """Initialise a forked worker with the cell runner, which fork copies
    without pickling. The worker ignores SIGINT: on an interrupt the
    parent stops handing out cells and records those that still finish."""
    global _worker_run
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_run = run


def _worker_cell(key: str):
    return _worker_run(key)


def _import_deferred(plan: ExperimentPlan) -> None:
    """Import, once before forking, the scipy subpackages that the plan's
    cells would otherwise import again in every worker: stats and optimize
    for the SIR banks, and spatial for R's assignment. Figures need none."""
    if plan.scenario in _FIGURES:
        return
    from scipy import optimize, stats  # noqa: F401
    if _reference_rows(plan) is not None:
        from scipy import spatial  # noqa: F401


def _run_forked(pending: list[str], workers: int, run, record,
                mpath: Path) -> None:
    """Run the ``pending`` cells ``workers`` at a time in forked worker
    processes and ``record`` each ``run(key)`` outcome here as it arrives.

    The fork start method copies ``run``, a closure over the plan's cells,
    into each worker without pickling, so a worker gets only a key and
    returns only the outcome. (Fork is unsafe in a process running other
    threads; the executor forks every worker before it starts its own.) A
    new cell is handed out only as one finishes: after an exception no cell
    starts, and the running ones are recorded when they finish, so every
    cell file on disk stays in the manifest.
    """
    queue = iter(pending)
    running: dict = {}
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(run,))

    def submit(key):
        running[pool.submit(_worker_cell, key)] = key

    try:
        for key in itertools.islice(queue, workers):
            submit(key)
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                outcome = future.result()  # a worker's death raises here
                record(running.pop(future), *outcome)
                for key in itertools.islice(queue, 1):
                    submit(key)
    except BrokenProcessPool as exc:
        left = sorted([*running.values(), *queue])
        raise RuntimeError(
            f"a worker process died; unfinished cells: {', '.join(left)}; "
            f"finished cells are in {mpath}") from exc
    finally:
        pool.shutdown()
        for future, key in running.items():
            if future.exception() is None:
                record(key, *future.result())


def orchestrate(plan: ExperimentPlan) -> RunManifest:
    """Run every pending cell of a plan, then rebuild its summary.

    Up to ``plan.threads`` cells run at once, each in a worker process
    forked from this one; with one at a time (``threads=1`` or a single
    pending cell) they run here, in the plan's cell order. Each cell writes
    its own file, and this process alone records the file and its sha256
    in the manifest, saved as each cell finishes, in whatever order, so a
    run that stops partway keeps every finished cell. On an interrupt or a
    cell's ``BaseException``, no further cell starts and the running ones
    are recorded when they finish; a worker that dies ends the run with a
    ``RuntimeError`` naming the unfinished cells. A cell is pending unless
    an existing manifest with the same configuration lists files that
    still carry their digests. The summary (figure or table) is read back
    from the cell files on disk and rebuilt whenever a cell ran or its own
    files fail that check, so the outputs are byte-identical for any
    thread count and any resume.
    """
    from . import __version__

    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mpath = out_dir / "manifest.json"
    config = json.loads(json.dumps(plan.config_dict()))  # tuples as lists
    manifest = RunManifest(scenario=plan.scenario, config=config,
                           version=__version__)
    if mpath.exists():
        try:
            old = RunManifest.load(mpath)
        except (OSError, json.JSONDecodeError, KeyError):
            old = None
        if old and old.config == manifest.config:
            manifest = old

    cells, summary = _grid_cells(plan), f"{plan.scenario}/summary"
    tasks = dict(cells)
    pending = [k for k, _ in cells if not manifest.cell_done(k, out_dir)]
    failures: dict = {}

    def run(key):
        t0 = time.perf_counter()
        try:
            files, err = _cell_files(plan, key, tasks[key](), out_dir), None
        except Exception as exc:  # isolate the cell; recorded below
            files, err = None, exc
        return files, err, time.perf_counter() - t0

    def record(key, files, err, seconds):
        if err is None:
            manifest.record(key, out_dir, files=files, seconds=seconds)
        else:
            failures[key] = err
            manifest.record(key, out_dir, seconds=seconds,
                            error=f"{type(err).__name__}: {err}")
        manifest.save(mpath)

    workers = min(plan.threads, len(pending))
    if workers <= 1:
        for key in pending:
            record(key, *run(key))
    else:
        _import_deferred(plan)
        _run_forked(pending, workers, run, record, mpath)
    if failures:
        names = ", ".join(sorted(failures))
        first = failures[sorted(failures)[0]]
        raise RuntimeError(
            f"{len(failures)} of {len(pending)} cells failed ({names}); "
            f"finished cells and failure records are in "
            f"{mpath}") from first

    if pending or not manifest.cell_done(summary, out_dir):
        found = {key: _read_cell(plan, manifest.cells[key]["files"], out_dir)
                 for key, _ in cells}
        files = _REDUCERS[plan.scenario](plan, found, out_dir)
        manifest.record(summary, out_dir, files=files)
        manifest.save(mpath)
    return manifest
