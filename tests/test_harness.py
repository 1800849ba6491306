"""Experiment plans, parallel orchestration, and reproducible outputs."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import sys

import pytest

from mcmcdegen.harness import (
    ExperimentPlan,
    RunManifest,
    default_theta0,
    make_plan,
    orchestrate,
)
from mcmcdegen.metrics import DiagnosticsReport, one_step_statistic
from mcmcdegen.model import ModelConfig, Theta
from mcmcdegen.sampling import RngStream

_SMALL_DIAG = dict(
    n_list=(60,), m=5, R=2,
    options={"inner": 4, "starts": 2, "bank_size": 128, "pool": 1024},
)


class TestPlans:
    def test_scenario_defaults(self):
        plan = make_plan("fig1")
        assert plan.n_list == (100, 1000)
        assert plan.variants == ("binary-null", "binary-beta")
        assert plan.m == 200
        table = make_plan("table1")
        assert table.n_list == (100, 400, 1600)
        assert table.c_list == (2, 3, 4)
        assert len(table.variants) == 4

    def test_overrides(self):
        plan = make_plan("fig1", n_list=(40,), m=10, threads=3,
                         out_dir="x")
        assert plan.n_list == (40,) and plan.m == 10
        assert plan.threads == 3

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            make_plan("fig9")

    def test_ratio_figures_need_enough_categories(self):
        for scenario in ("fig2", "fig3"):
            with pytest.raises(ValueError, match="c >= 4"):
                make_plan(scenario, c_list=(3,))

    def test_figures_draw_one_c(self):
        """A figure plots one number of categories; a second c would be
        recorded in the manifest but never drawn."""
        for scenario, c_list in (("fig1", (2, 3)), ("fig2", (4, 5)),
                                 ("fig3", ())):
            with pytest.raises(ValueError, match="one number of categories"):
                make_plan(scenario, c_list=c_list)
        assert make_plan("fig2", c_list=(5,)).c_list == (5,)

    def test_figure_variants_are_fixed(self):
        """A figure draws one fixed pair of kernels; any other variants are
        refused before a single chain runs."""
        with pytest.raises(ValueError, match="draws the variants beta"):
            make_plan("fig2", variants=("null", "null-ma"), n_list=(60,), m=8)
        with pytest.raises(ValueError, match="draws the variants binary"):
            make_plan("fig1", variants=("binary-null",))
        pair = ("binary-null", "binary-beta")
        assert make_plan("fig1", variants=pair).variants == pair

    def test_unknown_option_keys_refused(self, tmp_path):
        """A misspelt or stale ``options`` key fails in ``make_plan``, with
        the known keys named, before any cell runs or any file is written:
        a misspelt bank size used to run with the default bank, and a
        ``Theta`` value to die in the manifest's ``json.dumps``."""
        out = tmp_path / "o"
        with pytest.raises(ValueError, match="unknown option 'bank_sz' for "
                           "diagnose; known: inner, starts, bank_size"):
            make_plan("diagnose", out_dir=str(out), n_list=(20,), m=2, R=2,
                      options={"bank_sz": 64, "pool": 1024, "inner": 2,
                               "starts": 2})
        with pytest.raises(ValueError, match="unknown option 'theta0'"):
            make_plan("table1", out_dir=str(out), n_list=(20,), m=2, R=2,
                      options={"theta0": Theta(alpha=(), beta=(2.0,))})
        with pytest.raises(ValueError, match="known: none"):
            make_plan("fig1", out_dir=str(out), options={"pool": 256})
        assert not out.exists()
        assert make_plan("diagnose", options={"pool": 1024}).options == {
            "pool": 1024}

    @pytest.mark.parametrize("scenario, kw, message", [
        ("diagnose", dict(m=1), "need m >= 2"),
        ("diagnose", dict(m=600, options={"with_risk": True}),
         "reference_size=512 < m=600"),
        ("table1", dict(R=1), "need at least two replications"),
        ("diagnose", dict(variants=("binary-null",), c_list=(3,)),
         "binary kernels require c = 2"),
        ("fig1", dict(c_list=(3,)), "binary kernels require c = 2"),
        ("diagnose", dict(options={"pool": 256}), "bank_size=512 >= pool=256"),
        ("table1", dict(options={"bank_size": 2048, "pool": 1024}),
         "bank_size=2048 >= pool=1024"),
        # Kish's ESS equals the pool only under equal weights
        ("diagnose", dict(options={"pool": 512}), "bank_size=512 >= pool=512"),
        # R' and R draw their banks from the fixed pool of 8192
        ("diagnose", dict(options={"bank_size": 9000, "pool": 20000}),
         "bank_size=9000 >= 8192, the fixed SIR pool"),
        ("custom", dict(variants=("beta",), c_list=(3,), n_list=(50,),
                        options={"bank_size": 8192, "pool": 16384}),
         "bank_size=8192 >= 8192, the fixed SIR pool"),
        ("diagnose", dict(options={"with_risk": True,
                                   "reference_size": 9000}),
         "reference_size=9000 >= 8192, the fixed SIR pool"),
    ], ids=["m-1", "m-above-reference", "R-1", "binary-c3", "fig1-c3",
            "diagnose-pool-below-bank", "table1-pool-below-bank",
            "diagnose-pool-equals-bank", "rprime-bank-above-fixed-pool",
            "custom-rprime-bank-at-fixed-pool", "reference-above-fixed-pool"])
    def test_plan_no_cell_could_run_is_refused(self, scenario, kw, message):
        """A setting its cells' estimators would refuse at entry is refused
        by ``make_plan``, with their message, before any cell runs: these
        plans used to build banks and chains and then fail every cell."""
        with pytest.raises(ValueError) as err:
            make_plan(scenario, **kw)
        assert message in str(err.value)

    def test_config_drops_execution_details(self):
        plan = make_plan("fig1", threads=8, out_dir="/tmp/zzz")
        cfg = plan.config_dict()
        assert "threads" not in cfg and "out_dir" not in cfg
        assert cfg["scenario"] == "fig1"

    def test_plan_is_frozen(self):
        plan = make_plan("fig1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.m = 7

    def test_default_designs(self):
        assert default_theta0(2).beta[0] == 2.0
        t4 = default_theta0(4)
        assert list(t4.alpha) == [0.7, 1.4]
        t5 = default_theta0(5)
        assert len(t5.alpha) == 3 and all(t5.alpha[1:] > t5.alpha[:-1])
        t2p2 = default_theta0(2, p=2)
        assert len(t2p2.beta) == 2


_SMALL_TABLE = dict(
    R=4, variants=("beta",), c_list=(2,), n_list=(100, 400, 1600),
    options={"datasets": 2, "inner": 2, "starts": 2, "bank_size": 128,
             "pool": 1024},
)

_SMALL = {
    "fig1": dict(n_list=(40,), m=10),
    "fig2": dict(n_list=(60,), m=8),
    "fig3": dict(n_list=(60,), m=8),
    "table1": _SMALL_TABLE,
    "diagnose": _SMALL_DIAG,
}


def _files_bytes(out_dir, manifest):
    return {name: (out_dir / name).read_bytes() for name in manifest.files}


def _first_cell_file(manifest):
    """The first file of the first cell (not a summary) in key order."""
    return next(cell["files"][0] for _, cell in sorted(manifest.cells.items())
                if "seconds" in cell)


class TestDeterminism:
    def test_trace_outputs_ignore_thread_count(self, tmp_path):
        kw = dict(n_list=(40,), m=10)
        m1 = orchestrate(make_plan("fig1", out_dir=str(tmp_path / "a"),
                                   threads=1, **kw))
        m2 = orchestrate(make_plan("fig1", out_dir=str(tmp_path / "b"),
                                   threads=2, **kw))
        assert m1.files == m2.files
        assert _files_bytes(tmp_path / "a", m1) == _files_bytes(
            tmp_path / "b", m2)
        assert "fig1.svg" in m1.files

    def test_diagnose_outputs_ignore_thread_count(self, tmp_path):
        m1 = orchestrate(make_plan("diagnose", out_dir=str(tmp_path / "a"),
                                   threads=1, **_SMALL_DIAG))
        m2 = orchestrate(make_plan("diagnose", out_dir=str(tmp_path / "b"),
                                   threads=2, **_SMALL_DIAG))
        assert m1.files == m2.files
        assert _files_bytes(tmp_path / "a", m1) == _files_bytes(
            tmp_path / "b", m2)

    def test_many_threads_record_every_cell(self, tmp_path):
        """Sixteen short cells on four workers with a tiny switch interval:
        the cells finish in any order, so a lost update would drop a cell
        or a digest from the manifest."""
        plan = make_plan("fig1", out_dir=str(tmp_path), threads=4, m=3,
                         n_list=tuple(range(30, 38)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            manifest = orchestrate(plan)
        finally:
            sys.setswitchinterval(interval)
        cells = [c for k, c in manifest.cells.items() if "seconds" in c]
        assert len(cells) == 16
        assert set(manifest.files) == {
            f for c in manifest.cells.values() for f in c["files"]}
        for name, digest in manifest.files.items():
            assert hashlib.sha256(
                (tmp_path / name).read_bytes()).hexdigest() == digest
        assert RunManifest.load(tmp_path / "manifest.json").files == (
            manifest.files)

    # sha256 of diagnostics.csv for _ORDER_PLAN, recorded when one diagnose
    # cell computed every statistic of its (variant, c, n) in one thread
    ORDER_CSV_SHA256 = ("8287a85187c4793b3941c5df637d5482"
                        "32568ee569c5f2513929c6bc11506b0a")

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_summary_rows_keep_their_order(self, tmp_path, threads):
        """The statistics of a (variant, c, n) are cells of their own and
        finish in any order; the summary still lists them by key and then
        statistic, n60 before n600, with the bytes it always had."""
        manifest = orchestrate(make_plan(
            "diagnose", out_dir=str(tmp_path), threads=threads,
            **dict(_SMALL_DIAG, n_list=(60, 600), options=dict(
                _SMALL_DIAG["options"], with_risk=True,
                reference_size=128))))
        assert manifest.files["diagnostics.csv"] == self.ORDER_CSV_SHA256
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["60"] * 5 + ["600"] * 5
        assert len(manifest.cells) == 2 * 3 + 1

    def test_one_cell_at_a_time_runs_in_process(self, tmp_path, monkeypatch):
        """threads=1, or a single pending cell, forks no worker: the cells
        run in this process, where a profiler or a tracer sees them."""
        import mcmcdegen.harness as harness_mod

        def no_fork(*args, **kw):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", no_fork)
        m1 = orchestrate(make_plan("diagnose", out_dir=str(tmp_path),
                                   threads=1, **_SMALL_DIAG))
        (tmp_path / _first_cell_file(m1)).unlink()
        m2 = orchestrate(make_plan("diagnose", out_dir=str(tmp_path),
                                   threads=4, **_SMALL_DIAG))
        assert m2.files == m1.files


class TestResume:
    def test_second_run_skips_and_keeps_bytes(self, tmp_path):
        plan = make_plan("fig1", out_dir=str(tmp_path), n_list=(40,), m=10)
        m1 = orchestrate(plan)
        stamp = {name: (tmp_path / name).stat().st_mtime_ns
                 for name in m1.files}
        m2 = orchestrate(plan)
        assert m2.files == m1.files
        for name in m1.files:
            assert (tmp_path / name).stat().st_mtime_ns == stamp[name]
        # per-cell timings recorded on the first pass survive the resume
        assert all("seconds" in c for k, c in m2.cells.items()
                   if not k.endswith("summary"))

    # A deleted cell file is recomputed; a deleted summary is rebuilt.
    @pytest.mark.parametrize("scenario, victim", [
        ("fig1", None), ("fig2", None), ("fig3", None), ("table1", None),
        ("fig1", "fig1.svg"), ("diagnose", "diagnostics.csv"),
    ], ids=["fig1", "fig2", "fig3", "table1", "fig1-summary",
            "diagnose-summary"])
    def test_missing_file_recomputed_identically(self, tmp_path, scenario,
                                                 victim):
        plan = make_plan(scenario, out_dir=str(tmp_path), **_SMALL[scenario])
        m1 = orchestrate(plan)
        blobs = _files_bytes(tmp_path, m1)
        (tmp_path / (victim or _first_cell_file(m1))).unlink()
        m2 = orchestrate(plan)
        assert m2.files == m1.files
        assert _files_bytes(tmp_path, m2) == blobs

    def test_damaged_cell_file_recomputed(self, tmp_path):
        plan = make_plan("fig1", out_dir=str(tmp_path), **_SMALL["fig1"])
        m1 = orchestrate(plan)
        blobs = _files_bytes(tmp_path, m1)
        victim = tmp_path / _first_cell_file(m1)
        victim.write_text(victim.read_text().splitlines()[0] + "\n")
        m2 = orchestrate(plan)
        assert m2.files == m1.files
        assert _files_bytes(tmp_path, m2) == blobs

    def test_interrupted_run_keeps_finished_cells(self, tmp_path,
                                                  monkeypatch):
        import mcmcdegen.harness as harness_mod

        real = one_step_statistic
        calls = []

        def interrupted(variant, cfg, n, R, transform, seed, **kw):
            if n == 80:
                raise KeyboardInterrupt
            return real(variant, cfg, n, R, transform, seed, **kw)

        def counting(variant, cfg, n, R, transform, seed, **kw):
            calls.append(n)
            return real(variant, cfg, n, R, transform, seed, **kw)

        plan = make_plan("diagnose", out_dir=str(tmp_path),
                         **dict(_SMALL_DIAG, n_list=(60, 80)))
        monkeypatch.setattr(harness_mod, "one_step_statistic", interrupted)
        with pytest.raises(KeyboardInterrupt):
            orchestrate(plan)
        monkeypatch.setattr(harness_mod, "one_step_statistic", counting)
        manifest = orchestrate(plan)
        assert calls == [80]
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert {row.split(",")[2] for row in rows[1:]} == {"60", "80"}
        assert set(manifest.files) == {
            f for cell in manifest.cells.values() for f in cell["files"]}

    def test_interrupt_keeps_cells_finished_out_of_order(self, tmp_path,
                                                         monkeypatch):
        """On two workers the first cell is interrupted (in its worker) once
        n = 100's first cell has started: every cell file on disk is in the
        manifest with its sha256, the cells still queued never start, and a
        resume recomputes exactly the cells that left no file. Which
        running cells finish depends on timing, so the property is checked,
        not a list."""
        import mcmcdegen.harness as harness_mod

        real = one_step_statistic
        # the cells run in forked workers, so the signal must cross processes
        third_started = multiprocessing.get_context("fork").Event()

        def interrupted(variant, cfg, n, R, transform, seed, **kw):
            if n == 60:
                assert third_started.wait(timeout=60)
                raise KeyboardInterrupt
            if n == 100:
                third_started.set()
            return real(variant, cfg, n, R, transform, seed, **kw)

        plan = make_plan("diagnose", out_dir=str(tmp_path), threads=2,
                         **dict(_SMALL_DIAG, n_list=(60, 80, 100, 120, 140)))
        cell_files = [f"diagnose_binary-null_c2_n{n}_{stat}.json"
                      for n in plan.n_list for stat in ("one_step",
                                                        "risk_prime")]
        monkeypatch.setattr(harness_mod, "one_step_statistic", interrupted)
        with pytest.raises(KeyboardInterrupt):
            orchestrate(plan)
        recorded = json.loads((tmp_path / "manifest.json").read_text())
        on_disk = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.glob("diagnose_*.json")}
        assert on_disk == recorded["files"]
        missing = [f for f in cell_files if f not in on_disk]
        assert "diagnose_binary-null_c2_n60_one_step.json" in missing
        assert {"diagnose_binary-null_c2_n140_one_step.json",
                "diagnose_binary-null_c2_n140_risk_prime.json"} <= set(missing)

        # the resume runs in workers too: count recomputed cells by the
        # files it wrote, which are the only ones whose mtime moves
        stamp = {f: (tmp_path / f).stat().st_mtime_ns for f in on_disk}
        monkeypatch.setattr(harness_mod, "one_step_statistic", real)
        orchestrate(plan)
        rewritten = [f for f in cell_files
                     if (tmp_path / f).stat().st_mtime_ns != stamp.get(f)]
        assert rewritten == missing

    def test_dead_worker_keeps_finished_cells(self, tmp_path, monkeypatch):
        """A worker that exits mid-cell ends the run with a RuntimeError
        naming the unfinished cells; the finished cells stay recorded with
        their sha256, and a resume rebuilds the missing files byte for
        byte."""
        import mcmcdegen.harness as harness_mod

        grid = dict(_SMALL_DIAG, n_list=(60, 80))
        clean = orchestrate(make_plan("diagnose",
                                      out_dir=str(tmp_path / "clean"), **grid))
        real, parent = one_step_statistic, os.getpid()

        def dying(variant, cfg, n, R, transform, seed, **kw):
            if n == 80 and os.getpid() != parent:  # never this process
                os._exit(3)
            return real(variant, cfg, n, R, transform, seed, **kw)

        out = tmp_path / "run"
        plan = make_plan("diagnose", out_dir=str(out), threads=2, **grid)
        monkeypatch.setattr(harness_mod, "one_step_statistic", dying)
        with pytest.raises(RuntimeError, match="a worker process died; "
                           "unfinished cells: .*c2/n80/one_step"):
            orchestrate(plan)
        recorded = RunManifest.load(out / "manifest.json")
        assert recorded.files
        assert "diagnose_binary-null_c2_n80_one_step.json" not in (
            recorded.files)
        for name, digest in recorded.files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == (
                digest)

        monkeypatch.setattr(harness_mod, "one_step_statistic", real)
        resumed = orchestrate(plan)
        assert resumed.files == clean.files
        assert _files_bytes(out, resumed) == _files_bytes(tmp_path / "clean",
                                                          clean)

    def test_changed_config_recomputes(self, tmp_path):
        orchestrate(make_plan("fig1", out_dir=str(tmp_path), n_list=(40,),
                              m=10))
        m2 = orchestrate(make_plan("fig1", out_dir=str(tmp_path),
                                   n_list=(40,), m=12))
        trace = next(n for n in m2.files if n.endswith(".csv"))
        body = (tmp_path / trace).read_text().strip().splitlines()
        assert len(body) == 1 + 13  # header plus steps 0..12


class TestCustomScenario:
    def test_explicit_grid_runs_like_diagnose(self, tmp_path):
        plan = make_plan("custom", out_dir=str(tmp_path),
                         variants=("binary-null",), c_list=(2,),
                         **_SMALL_DIAG)
        manifest = orchestrate(plan)
        assert "custom/binary-null/c2/n60/one_step" in manifest.cells
        assert manifest.cells["custom/summary"]["files"] == [
            "diagnostics.csv"]
        assert (tmp_path / "custom_binary-null_c2_n60_one_step.json"
                ).exists()

    def test_grid_is_required(self):
        with pytest.raises(ValueError, match="no defaults"):
            make_plan("custom", n_list=(60,))


class TestFailureRecords:
    def test_failed_cell_recorded_then_retried(self, tmp_path, monkeypatch):
        import mcmcdegen.harness as harness_mod

        real = one_step_statistic

        def flaky(variant, cfg, n, R, transform, seed, **kw):
            if n == 80:
                raise ValueError("synthetic cell failure")
            return real(variant, cfg, n, R, transform, seed, **kw)

        monkeypatch.setattr(harness_mod, "one_step_statistic", flaky)
        opts = dict(_SMALL_DIAG, n_list=(60, 80))
        plan = make_plan("diagnose", out_dir=str(tmp_path), **opts)
        with pytest.raises(RuntimeError, match="1 of 4 cells failed"):
            orchestrate(plan)

        manifest = RunManifest.load(tmp_path / "manifest.json")
        bad = manifest.cells["diagnose/binary-null/c2/n80/one_step"]
        assert bad["error"] == "ValueError: synthetic cell failure"
        assert "files" not in bad
        good = manifest.cells["diagnose/binary-null/c2/n60/one_step"]
        assert good["files"] and all(
            (tmp_path / f).exists() for f in good["files"])
        assert not (tmp_path / "diagnostics.csv").exists()

        # same configuration, healthy estimator: only the failed cell
        # reruns, and the summary covers the reloaded cell too
        monkeypatch.setattr(harness_mod, "one_step_statistic", real)
        m2 = orchestrate(plan)
        assert "error" not in m2.cells["diagnose/binary-null/c2/n80/one_step"]
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert {row.split(",")[2] for row in rows[1:]} == {"60", "80"}

    def test_failed_cell_in_a_worker_recorded(self, tmp_path, monkeypatch):
        """A cell that raises in its worker fails the run as in-process:
        its error is recorded, and so is every other cell."""
        import mcmcdegen.harness as harness_mod

        real = one_step_statistic

        def flaky(variant, cfg, n, R, transform, seed, **kw):
            if n == 80:
                raise ValueError("synthetic cell failure")
            return real(variant, cfg, n, R, transform, seed, **kw)

        monkeypatch.setattr(harness_mod, "one_step_statistic", flaky)
        plan = make_plan("diagnose", out_dir=str(tmp_path), threads=3,
                         **dict(_SMALL_DIAG, n_list=(60, 80)))
        with pytest.raises(RuntimeError, match="1 of 4 cells failed") as err:
            orchestrate(plan)
        assert isinstance(err.value.__cause__, ValueError)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        bad = manifest.cells.pop("diagnose/binary-null/c2/n80/one_step")
        assert bad["error"] == "ValueError: synthetic cell failure"
        assert len(manifest.files) == 3
        assert all(cell["files"] and "seconds" in cell
                   for cell in manifest.cells.values())

    def test_failed_rerun_leaves_no_stale_digest(self, tmp_path,
                                                 monkeypatch):
        import mcmcdegen.harness as harness_mod

        def broken(*args, **kw):
            raise ValueError("synthetic cell failure")

        plan = make_plan("diagnose", out_dir=str(tmp_path), **_SMALL_DIAG)
        victim = _first_cell_file(orchestrate(plan))
        (tmp_path / victim).unlink()
        monkeypatch.setattr(harness_mod, "one_step_statistic", broken)
        with pytest.raises(RuntimeError, match="1 of 1 cells failed"):
            orchestrate(plan)
        manifest = RunManifest.load(tmp_path / "manifest.json")
        assert victim not in manifest.files
        assert set(manifest.files) == {
            f for cell in manifest.cells.values()
            for f in cell.get("files", [])}


class TestDiagnoseCells:
    def test_report_matches_direct_estimate(self, tmp_path):
        plan = make_plan("diagnose", out_dir=str(tmp_path), **_SMALL_DIAG)
        orchestrate(plan)
        stored = DiagnosticsReport.load(
            tmp_path / "diagnose_binary-null_c2_n60_one_step.json")
        seed = RngStream(plan.master_seed, "diagnose", "binary-null", 2,
                         60).seed_int()
        direct = one_step_statistic(
            "binary-null", ModelConfig(c=2), 60, 2, "theta", seed,
            theta0=default_theta0(2), inner=4, starts=2, bank_size=128,
            pool=1024)
        assert stored.estimates == direct.estimates

    def test_summary_csv_lists_every_estimate(self, tmp_path):
        plan = make_plan("diagnose", out_dir=str(tmp_path), **_SMALL_DIAG)
        orchestrate(plan)
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "variant,c,n,statistic,value,se"
        stats = {line.split(",")[3] for line in lines[1:]}
        assert stats == {"one_step:D", "risk_prime:Rprime",
                         "risk_prime:Rprime_localized"}


class TestTableOutputs:
    def test_csv_and_detail(self, tmp_path):
        plan = make_plan("table1", out_dir=str(tmp_path), threads=2,
                         **_SMALL_TABLE)
        manifest = orchestrate(plan)
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "variant,c,n,D,se,label"
        assert len(lines) == 4
        labels = {line.split(",")[-1] for line in lines[1:]}
        assert len(labels) == 1  # one verdict per cell
        assert labels <= {"X", "O", "inconclusive"}
        detail = json.loads((tmp_path / "table1.json").read_text())
        assert set(detail) == {"beta/c2"}
        assert set(detail["beta/c2"]) == {"label", "D", "se", "ratio"}
        for n in (100, 400, 1600):
            name = f"table1_beta_c2_n{n}.json"
            assert name in manifest.files
            assert DiagnosticsReport.load(tmp_path / name).n == n


class TestFigures:
    def test_fig2_panels_and_styles(self, tmp_path):
        plan = make_plan("fig2", out_dir=str(tmp_path), n_list=(60,), m=8)
        orchestrate(plan)
        body = (tmp_path / "fig2.svg").read_text()
        for title in ("second cut trajectory", "third cut trajectory",
                      "slope trajectory"):
            assert title in body
        assert "polyline" in body
        assert 'stroke-dasharray="6,4"' in body   # rescaled series
        assert 'stroke-dasharray="2,3"' in body   # truth reference line

    def test_fig3_single_ratio_panel(self, tmp_path):
        plan = make_plan("fig3", out_dir=str(tmp_path), n_list=(60,), m=8)
        orchestrate(plan)
        body = (tmp_path / "fig3.svg").read_text()
        assert "cut-ratio trajectory" in body
        assert body.count("<polyline") == 2

    # sha256 of each figure at the small sizes, recorded at 47da3ed, when
    # the figures were drawn from in-memory chains rather than trace files.
    FIGURE_SHA256 = {
        "fig1": "315925aa1a08202e119cffb5e754618e"
                "7ff6b365afbe10839bbb45839e9118a0",
        "fig2": "5ef8192b08eafbf8dc8d83ad96494dd9"
                "d54e33328008a583cdbc2cbb8c30dcc1",
        "fig3": "2800b1286f7cae791f62fbb4b5b6dc44"
                "4d18d576d17fca788664e4cc3a27bde4",
    }

    @pytest.mark.parametrize("scenario", sorted(FIGURE_SHA256))
    def test_figure_bytes_pinned(self, tmp_path, scenario):
        manifest = orchestrate(make_plan(scenario, out_dir=str(tmp_path),
                                         **_SMALL[scenario]))
        assert (manifest.files[f"{scenario}.svg"]
                == self.FIGURE_SHA256[scenario])

    def test_manifest_hashes_are_accurate(self, tmp_path):
        plan = make_plan("fig1", out_dir=str(tmp_path), n_list=(40,), m=10)
        manifest = orchestrate(plan)
        import hashlib
        for name, digest in manifest.files.items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_manifest_roundtrip(self, tmp_path):
        plan = make_plan("fig1", out_dir=str(tmp_path), n_list=(40,), m=10)
        m1 = orchestrate(plan)
        back = RunManifest.load(tmp_path / "manifest.json")
        assert back.scenario == "fig1"
        assert back.config == m1.config
        assert back.files == m1.files
