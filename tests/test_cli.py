"""Command-line behavior: subcommands, config handling, exit codes."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mcmcdegen import cli
from mcmcdegen.model import load_dataset


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, _ = _run(capsys, ["verify"])
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 6
        assert all(l.startswith("PASS ") for l in lines)
        names = {l.split()[1].rstrip(":") for l in lines}
        assert names == {"scale-constants", "point-mass-identity",
                         "bl-equals-w1", "bl-assignment-exact",
                         "central-value", "scale-conditional"}

    def test_report_file(self, tmp_path, capsys):
        out_file = tmp_path / "verify.txt"
        code, out, _ = _run(capsys, ["verify", "--out", str(out_file)])
        assert code == 0
        assert out_file.read_text().strip() == out.strip()


class TestGenData:
    def test_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = _run(capsys, [
            "gen-data", "--n", "30", "--c", "3", "--seed", "5",
            "--out", str(out)])
        assert code == 0
        info = json.loads(stdout.splitlines()[-1])
        assert info["n"] == 30 and info["c"] == 3
        data = load_dataset(out)
        assert data.n == 30 and data.c == 3

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, ["gen-data", "--n", "20", "--seed", "5", "--out", str(a)])
        _run(capsys, ["gen-data", "--n", "20", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_theta0_option(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, stdout, _ = _run(capsys, [
            "gen-data", "--n", "10", "--c", "3", "--out", str(out),
            "--opt", 'theta0="0.5,-2.0"'])
        assert code == 0
        assert list(load_dataset(out).true_theta.alpha) == [0.5]

    def test_theta0_from_config_file(self, tmp_path, capsys):
        """The config file's ``options`` reach gen-data; ``--opt`` wins."""
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"options": {"theta0": [0.5, -2.0]},
                                    "c": 3, "n": 10}))
        for opt, alpha in ([], 0.5), (["--opt", "theta0=[0.7,1.0]"], 0.7):
            out = tmp_path / f"d{alpha}.csv"
            code, _, err = _run(capsys, ["gen-data", "--config", str(conf),
                                         "--out", str(out)] + opt)
            assert code == 0, err
            assert list(load_dataset(out).true_theta.alpha) == [alpha]


class TestRunChain:
    def test_fixed_start_trace(self, tmp_path, capsys):
        code, stdout, _ = _run(capsys, [
            "run-chain", "--variant", "binary-null", "--n", "40", "--m", "5",
            "--seed", "3", "--out", str(tmp_path), "--opt", "start=1.5"])
        assert code == 0
        info = json.loads(stdout.splitlines()[-1])
        path = tmp_path / "binary-null_n40_r0.csv"
        assert str(path) == info["path"]
        lines = path.read_text().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) == 1 + 6  # start plus five steps
        assert lines[1].split(",")[1] == "1.5"

    def test_record_every(self, tmp_path, capsys):
        code, _, _ = _run(capsys, [
            "run-chain", "--variant", "beta", "--c", "3", "--n", "30",
            "--m", "6", "--out", str(tmp_path), "--opt", "record_every=2"])
        assert code == 0
        lines = (tmp_path / "beta_n30_r0.csv").read_text().splitlines()
        steps = [row.split(",")[0] for row in lines[1:]]
        assert steps == ["0", "2", "4", "6"]

    def test_reference_start(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        code, _, _ = _run(capsys, [
            "build-reference", "--n", "50", "--seed", "4", "--out", str(ref),
            "--opt", "length=2000", "--opt", "burn=200", "--opt", "thin=5"])
        assert code == 0
        assert ref.exists() and ref.with_suffix(".json").exists()
        code, stdout, _ = _run(capsys, [
            "run-chain", "--variant", "binary-beta", "--n", "50", "--m", "4",
            "--seed", "4", "--out", str(tmp_path), "--reference", str(ref)])
        assert code == 0
        assert (tmp_path / "binary-beta_n50_r0.csv").exists()


class TestConfigPrecedence:
    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 25, "seed": 9,
                                       "out": str(tmp_path / "c.csv")}))
        code, stdout, _ = _run(capsys, ["gen-data", "--config", str(cfgfile)])
        assert code == 0
        assert json.loads(stdout.splitlines()[-1])["n"] == 25

    def test_flag_beats_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 25,
                                       "out": str(tmp_path / "c.csv")}))
        code, stdout, _ = _run(capsys, [
            "gen-data", "--config", str(cfgfile), "--n", "31"])
        assert code == 0
        assert json.loads(stdout.splitlines()[-1])["n"] == 31


class TestErrors:
    def test_unknown_variant_is_config_error(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "run-chain", "--variant", "nope", "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_malformed_opt(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "gen-data", "--opt", "n30", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "KEY=VALUE" in json.loads(err)["error"]["message"]

    def test_unknown_opt_run_chain(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "run-chain", "--variant", "beta", "--c", "3", "--n", "20",
            "--m", "2", "--out", str(tmp_path), "--opt", "recrd_every=5"])
        assert code == 2
        msg = json.loads(err)["error"]["message"]
        assert "'recrd_every'" in msg and "record_every" in msg
        assert not list(tmp_path.iterdir())

    def test_unknown_opt_diagnose(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "diagnose", "--out", str(tmp_path), "--n", "50", "--m", "4",
            "--R", "2", "--opt", "bank_sz=64"])
        assert code == 2
        msg = json.loads(err)["error"]["message"]
        assert "'bank_sz'" in msg and "bank_size" in msg
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--opt", "start=1"],
        ["build-reference", "--opt", "scans=2"],
        ["table1", "--opt", "with_risk=true"],
        ["figure", "--scenario", "fig1", "--opt", "pool=1024"],
        # the true parameters, the figures' starts and the transform are
        # fixed designs, not plan options
        ["diagnose", "--n", "20", "--m", "2", "--R", "2",
         "--opt", "theta0=1.0"],
        ["figure", "--scenario", "fig1", "--n", "20", "--m", "2",
         "--opt", "start=1.5"],
        ["diagnose", "--opt", "transform=theta"],
    ])
    def test_opt_from_another_command(self, tmp_path, capsys, argv):
        code, _, err = _run(capsys, argv + ["--out", str(tmp_path / "o")])
        assert code == 2
        assert "unknown option" in json.loads(err)["error"]["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["diagnose", "--m", "1"], "need m >= 2"),
        (["diagnose", "--m", "600", "--opt", "with_risk=true"],
         "reference_size=512 < m=600"),
        (["table1", "--R", "1"], "need at least two replications"),
        (["diagnose", "--variant", "binary-null", "--c", "3"],
         "binary kernels require c = 2"),
    ], ids=["m-1", "m-above-reference", "R-1", "binary-c3"])
    def test_plan_no_cell_could_run_exits_2(self, tmp_path, capsys, argv,
                                            message):
        """A plan its cells would refuse is a configuration error (exit 2),
        not a failed run (exit 1), and leaves no output directory."""
        small = ["--n", "40", "--opt", "inner=2", "--opt", "starts=2",
                 "--opt", "bank_size=64", "--opt", "pool=512"]
        code, _, err = _run(capsys, argv + small + ["--out",
                                                    str(tmp_path / "o")])
        assert code == 2
        assert message in json.loads(err)["error"]["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["diagnose", "--opt", "pool=256"], "bank_size=512 >= pool=256"),
        (["table1", "--opt", "bank_size=2048", "--opt", "pool=1024"],
         "bank_size=2048 >= pool=1024"),
        (["diagnose", "--opt", "pool=512"], "bank_size=512 >= pool=512"),
        (["diagnose", "--opt", "bank_size=9000", "--opt", "pool=20000"],
         "bank_size=9000 >= 8192, the fixed SIR pool"),
        (["diagnose", "--opt", "with_risk=true",
          "--opt", "reference_size=9000"],
         "reference_size=9000 >= 8192, the fixed SIR pool"),
    ], ids=["diagnose", "table1", "diagnose-pool-equals-bank",
            "rprime-bank-above-fixed-pool", "reference-above-fixed-pool"])
    def test_pool_below_bank_size_exits_2(self, tmp_path, capsys, argv,
                                          message):
        """A SIR pool no larger than its bank (R' and R always draw from
        8192) can never reach the bank's effective sample size, since Kish's
        ESS equals the pool only under equal weights, so every cell would
        fail: exit 2, no output."""
        code, _, err = _run(capsys, argv + ["--out", str(tmp_path / "o")])
        assert code == 2
        assert message in json.loads(err)["error"]["message"]
        assert not (tmp_path / "o").exists()

    def test_unknown_option_in_config_file(self, tmp_path, capsys):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"options": {"inner": 3, "startz": 2}}))
        code, _, err = _run(capsys, [
            "table1", "--config", str(conf), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'startz'" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command", ["gen-data", "diagnose"])
    @pytest.mark.parametrize("settings, message", [
        ({"sed": 3}, "'sed' for gen-data config file; known: seed"),
        ({"options": 5}, "options in one")])
    def test_bad_config_file_exits_2(self, tmp_path, capsys, command,
                                     settings, message):
        """A misspelt top-level key ("sed" for "seed") would run with the
        default seed, and ``options`` that are not a JSON object cannot
        take the ``--opt`` pairs: both exit 2, and nothing is written."""
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(settings))
        code, _, err = _run(capsys, [command, "--config", str(conf),
                                     "--out", str(tmp_path / "o")])
        assert code == 2
        msg = json.loads(err)["error"]["message"]
        assert message.replace("gen-data", command) in msg
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key", [
        ("gen-data", "theta"), ("run-chain", "record"),
        ("build-reference", "lenght")])
    def test_unknown_option_in_config_file_outside_plans(self, tmp_path,
                                                         capsys, command,
                                                         key):
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"options": {key: 5}}))
        code, _, err = _run(capsys, [command, "--config", str(conf),
                                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"'{key}'" in json.loads(err)["error"]["message"]
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, capsys):
        code, _, err = _run(capsys, ["gen-data", "--config", "/no/such.json"])
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_failed_cell_exits_1(self, tmp_path, capsys, monkeypatch):
        """A cell that raises ends the run with exit 1 and a JSON error that
        names the manifest holding the failure record."""
        from mcmcdegen import harness

        def broken(*args, **kw):
            raise ValueError("synthetic cell failure")

        monkeypatch.setattr(harness, "one_step_statistic", broken)
        code, _, err = _run(capsys, [
            "diagnose", "--out", str(tmp_path), "--n", "20", "--m", "2",
            "--R", "2"])
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "RuntimeError"
        assert "1 of 2 cells failed" in error["message"]
        assert str(tmp_path / "manifest.json") in error["message"]
        cell = json.loads((tmp_path / "manifest.json").read_text())[
            "cells"]["diagnose/binary-null/c2/n20/one_step"]
        assert cell["error"] == "ValueError: synthetic cell failure"

    def test_bad_figure_scenario(self, tmp_path, capsys):
        code, _, err = _run(capsys, [
            "figure", "--scenario", "fig9", "--out", str(tmp_path)])
        assert code == 2
        assert "fig1" in json.loads(err)["error"]["message"]


class TestHarnessCommands:
    def test_diagnose_prints_summary(self, tmp_path, capsys):
        code, stdout, _ = _run(capsys, [
            "diagnose", "--out", str(tmp_path), "--n", "50", "--m", "4",
            "--R", "2", "--opt", "inner=3", "--opt", "starts=2",
            "--opt", "bank_size=128", "--opt", "pool=1024"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "variant,c,n,statistic,value,se"
        tail = json.loads(lines[-1])
        assert tail["out_dir"] == str(tmp_path)
        assert (tmp_path / "diagnostics.csv").exists()

    def test_figure_runs_fig1(self, tmp_path, capsys):
        code, stdout, _ = _run(capsys, [
            "figure", "--scenario", "fig1", "--out", str(tmp_path),
            "--n", "40", "--m", "8"])
        assert code == 0
        assert json.loads(stdout.splitlines()[-1])["figure"] == "fig1.svg"
        assert (tmp_path / "fig1.svg").exists()

    def test_table1_prints_rows(self, tmp_path, capsys):
        code, stdout, _ = _run(capsys, [
            "table1", "--out", str(tmp_path), "--R", "4", "--variant",
            "beta", "--c", "2", "--opt", "datasets=2", "--opt", "inner=2",
            "--opt", "starts=2", "--opt", "bank_size=128",
            "--opt", "pool=1024"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "variant,c,n,D,se,label"
        assert len([l for l in lines if l.startswith("beta,2,")]) == 3

    def test_c_takes_a_list(self, tmp_path, capsys):
        """``--c`` takes a comma list on the plan commands, as ``--n`` does
        and as ``c`` does in a config file."""
        code, stdout, err = _run(capsys, [
            "diagnose", "--out", str(tmp_path), "--variant", "beta",
            "--c", "2,3", "--n", "40", "--m", "3", "--R", "2",
            "--opt", "inner=2", "--opt", "starts=2",
            "--opt", "bank_size=64", "--opt", "pool=512"])
        assert code == 0, err
        rows = stdout.splitlines()[1:-1]
        assert {row.split(",")[1] for row in rows} == {"2", "3"}


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _subprocess_env():
    """Environment that makes a child interpreter import this mcmcdegen."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _console_script_target():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["mcmcdegen"]


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """The declared console script runs, with argv from the command line.

        The wrapper pip generates for ``[project.scripts]`` is run directly,
        so no install is needed; an installed ``mcmcdegen`` is run as well.
        """
        module, _, func = _console_script_target().partition(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        commands = [[sys.executable, "-c", wrapper]]
        installed = shutil.which("mcmcdegen")
        if installed:
            commands.append([installed])
        for i, command in enumerate(commands):
            out = tmp_path / f"d{i}.csv"
            proc = subprocess.run(
                command + ["gen-data", "--n", "12", "--out", str(out)],
                capture_output=True, text=True, env=_subprocess_env())
            assert proc.returncode == 0, (command, proc.stderr)
            assert out.exists()
            assert json.loads(proc.stdout.splitlines()[-1])["n"] == 12

    def test_module_main_guard(self):
        """``python -m mcmcdegen.cli verify`` passes every check, also under
        ``-O``, where a check resting on ``assert`` would pass vacuously."""
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "mcmcdegen.cli", "verify"],
                capture_output=True, text=True, env=_subprocess_env())
            assert proc.returncode == 0, (flags, proc.stderr)
            lines = proc.stdout.splitlines()
            assert len(lines) == 6, (flags, proc.stdout)
            assert all(line.startswith("PASS ") for line in lines), flags


# scipy subpackages the kernels, figures and refusals never call; each is
# imported inside the function that uses it
_DEFERRED = ("scipy.stats", "scipy.optimize", "scipy.integrate",
             "scipy.spatial", "mpmath")
_SURFACE_SCRIPT = """
import json, sys
deferred = json.loads(sys.argv[1])
out = sys.argv[2]

def loaded():
    return sorted(name for name in deferred if name in sys.modules)

import mcmcdegen, mcmcdegen.cli
seen = {"import": loaded()}
from mcmcdegen import cli
code = cli.main(["figure", "--scenario", "fig1", "--n", "40", "--m", "8",
                 "--out", out + "/fig"])
seen["figure"] = [code, loaded()]
code = cli.main(["run-chain", "--variant", "beta", "--c", "3", "--n", "30",
                 "--m", "5", "--out", out + "/chain"])
seen["run-chain"] = [code, loaded()]
print(json.dumps(seen))
"""


class TestColdStart:
    def test_kernels_and_figures_load_no_deferred_subpackage(self, tmp_path):
        """A fresh interpreter imports the package and runs a figure and a
        chain without loading scipy's stats, optimize, integrate or spatial
        (about half a second of start-up), or mpmath."""
        proc = subprocess.run(
            [sys.executable, "-c", _SURFACE_SCRIPT, json.dumps(_DEFERRED),
             str(tmp_path)],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"import": [], "figure": [0, []],
                        "run-chain": [0, []]}

    def test_first_imports_on_two_threads_keep_bytes(self, tmp_path):
        """A cold diagnose run with R on two worker processes, which the
        parent forks after importing the deferred subpackages, writes the
        bytes of a one-thread run, which imports them at its first call."""
        digests = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "mcmcdegen.cli", "diagnose",
                 "--n", "40,60", "--m", "4", "--R", "2",
                 "--threads", str(threads), "--out", str(out),
                 "--opt", "inner=2", "--opt", "starts=2",
                 "--opt", "bank_size=64", "--opt", "pool=512",
                 "--opt", "with_risk=true", "--opt", "reference_size=64"],
                capture_output=True, text=True, env=_subprocess_env())
            assert proc.returncode == 0, proc.stderr
            files = json.loads((out / "manifest.json").read_text())["files"]
            digests[threads] = {
                f: hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in files}
        assert len(digests[1]) >= 3
        assert digests[1] == digests[2]
