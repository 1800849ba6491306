"""The benchmark's tracer still reaches every per-layer metric it reports.

``bench/tracer.py`` wraps the public functions of the package by name and
raises when a metric names a function that is no longer there; this test
runs it on a tiny diagnose plan, so a renamed or deleted function shows up
here rather than in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from mcmcdegen import harness, kernels, model, sampling
from mcmcdegen.sampling import RngStream

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_covers_every_per_layer_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The worker computes the overhead from its untraced and traced runs.
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    orchestrate = harness.orchestrate
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        harness.orchestrate(harness.make_plan(
            "diagnose", out_dir=str(tmp_path), n_list=(60,), m=5, R=2,
            options={"inner": 4, "starts": 2, "bank_size": 128,
                     "pool": 1024, "with_risk": True,
                     "reference_size": 128}))
    finally:
        tracer.uninstall()
    assert harness.orchestrate is orchestrate
    metrics = tracer.layer_metrics(1)
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
    assert metrics["metrics.bl_distance.calls"] > 0
    assert metrics["kernels.kernel_step.calls"] > 0


def test_tracer_counts_one_window_calls_and_draws():
    """A one-window call takes the array path like any other, so the traced
    calls and draws count it the same way: one window and then 100
    windows are 2 calls and 101 draws."""
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        rng = RngStream(3, "tracer")
        sampling.truncated_normal_vec(0.0, np.ones(1), np.full(1, -1.0),
                                      np.full(1, 2.0), rng)
        sampling.truncated_normal_vec(np.zeros(100), 1.0, np.full(100, -1.0),
                                      np.full(100, 2.0), rng)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    assert metrics["sampling.truncated_normal_vec.calls"] == 2
    assert metrics["sampling.truncated_normal_vec.draws"] == 101


def test_tracer_counts_every_sweep_latent():
    """Every Gibbs sweep, of a batch or of one chain, draws its latents
    with ``truncated_normal_vec``, so the traced draws count them."""
    cfg = model.ModelConfig(c=3)
    data = model.sample_dataset(cfg, harness.default_theta0(3), 50, seed=5)
    variant = kernels.VariantId.parse("beta")
    for batch in (144, 1):
        rng = RngStream(7, batch)
        state = kernels.initial_state(cfg, variant, batch, rng.child("init"),
                                      theta=harness.default_theta0(3))
        tracer = _tracer_module().Tracer()
        tracer.install()
        try:
            kernels.kernel_step(cfg, data, state, variant, rng)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(1)
        assert metrics["kernels.kernel_step.latents"] == batch * data.n
        assert (metrics["sampling.truncated_normal_vec.draws"]
                >= batch * data.n), batch
