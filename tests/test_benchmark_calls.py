"""The benchmark's calls into ``plcd`` still work.

``perfbench`` drives the package through its public entry points and its
tracer wraps functions by dotted name; its own tests are not collected
here. These tests load its workload, layer and tracer modules read-only and
run each workload at a tiny config, so that an API change the benchmark
depends on fails here first.
"""

import importlib.util
from pathlib import Path

import pytest

from plcd import dataspace, diffusion

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TINY = {"num_landmarks": "8", "epochs_senior": "1", "epochs_junior": "1",
        "epochs_patch": "1"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads, layers, tracing = _load("workloads"), _load("layers"), _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_cycle_passes_its_checks(tmp_path, name):
    wl = workloads.WORKLOADS[name](1, tmp_path, TINY)
    wl.setup()
    tally = workloads.Tally()
    for _ in range(wl.cycle):
        wl.run_pass(tally)
    quality = wl.check(tally)
    assert tally.failed == 0, tally.problems
    assert tally.attempted > 0
    assert set(quality) == {"gs_cmc1", "gs_map", "gd_map"}


def test_traced_cli_chain_pass_completes(tmp_path):
    wl = workloads.CliChain(3, tmp_path, TINY)
    wl.setup()
    tally = workloads.Tally()
    tracer = tracing.Tracer("test")
    layers.install(tracer, dataspace.infer_visible_facet, wl.cfg.num_sections)
    try:
        wl.run_pass(tally, tracer)
    finally:
        tracer.unwrap()
    assert tally.failed == 0, tally.problems
    assert tracer.calls["peerlearn.train_senior"] == 1
    assert tracer.calls["peerlearn.train_junior"] == 1
    # the wrap targets the package no longer has, pinned so that renaming a
    # live target fails here; the per-anchor miner is among them, so the hit
    # ratio reads 0 over no calls
    assert sorted(tracer.absent) == [
        "diffusion.diffuse_closed_form",
        "encoder.RegionProjector.backward",
        "encoder.RegionProjector.embed",
        "encoder.RegionProjector.flush",
        "encoder.forward",
        "peerlearn.DroneFeatures.feature",
        "peerlearn._PooledCache.get",
        "peerlearn.aggregate_backward",
        "peerlearn.aggregate_feature",
        "peerlearn.mine_easy_triplet",
        "ranking.rank_gallery",
        "rmac.extract_patch_features",
    ]
    metrics = layers.per_layer_metrics(tracer, 0.0, 0.0, wl.check(tally))
    assert metrics["peerlearn.miner_hit_ratio.base"]["value"] == 0


def test_traced_sweep_sees_one_walk_per_alpha_when_it_splits(tmp_path, monkeypatch):
    """At one BLAS thread the walk runs its second half on a helper thread
    that calls nothing the tracer wraps: each alpha is still one
    ``diffuse_iterative`` span, with the one-block walk's iterations, and no
    span is left open."""
    wl = workloads.SweepIterative(1, tmp_path, TINY)
    wl.setup()
    iterations = {}
    for threads in (2, 1):
        monkeypatch.setattr(diffusion, "_blas_threads", lambda: threads)
        tracer = tracing.Tracer("test")
        layers.install(tracer, dataspace.infer_visible_facet, wl.cfg.num_sections)
        tally = workloads.Tally()
        try:
            wl.run_pass(tally, tracer)
        finally:
            tracer.unwrap()
        assert tally.failed == 0, tally.problems
        assert tracer.calls["diffusion.diffuse_iterative"] == len(wl.cfg.alpha_sweep)
        assert tracer._stack == []
        iterations[threads] = tracer.counters["walk_iterations"]
    assert iterations[1] == iterations[2] > 0
