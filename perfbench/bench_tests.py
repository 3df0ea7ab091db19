"""Tests of the benchmark itself (not collected by the repository's suite).

    python -m pytest perfbench/bench_tests.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from plcd import dataspace, diffusion, evalkit, pipeline, ranking  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CliChain, RetrieveLarge, SweepIterative, Tally  # noqa: E402

TINY = {"num_landmarks": "8", "epochs_senior": "1", "epochs_junior": "1",
        "epochs_patch": "1"}


def _cycle(wl, tally, tracer=None):
    for _ in range(wl.cycle):
        wl.run_pass(tally, tracer)


def _traced_cycle(wl, tally):
    tracer = Tracer("test")
    layers.install(tracer, dataspace.infer_visible_facet, wl.cfg.num_sections)
    try:
        _cycle(wl, tally, tracer)
    finally:
        tracer.unwrap()
    return tracer


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in spec["end_to_end"]] \
        == child.END_TO_END
    assert spec["per_layer"] == layers.PER_LAYER
    assert len({m["name"] for m in layers.PER_LAYER}) == len(layers.PER_LAYER)


def test_wrappers_reach_every_by_name_import_and_unwrap():
    originals = (ranking.rank_gallery, pipeline.generate_synthetic)
    tracer = Tracer("test")
    layers.install(tracer, dataspace.infer_visible_facet, 6)
    try:
        assert diffusion.rank_gallery is pipeline.rank_gallery is ranking.rank_gallery
        assert ranking.rank_gallery is not originals[0]
        assert pipeline.generate_synthetic is dataspace.generate_synthetic
        assert pipeline.generate_synthetic is not originals[1]
        assert tracer.absent == []
    finally:
        tracer.unwrap()
    assert (diffusion.rank_gallery, pipeline.generate_synthetic) == originals


def test_missing_wrap_target_is_recorded_absent():
    tracer = Tracer("test")
    tracer.wrap("encoder.NoSuchProjector.embed")
    tracer.wrap("encoder.no_such_function")
    tracer.wrap("no_such_module.function")
    assert tracer.absent == ["encoder.NoSuchProjector.embed", "encoder.no_such_function",
                             "no_such_module.function"]


def test_self_time_excludes_child_spans():
    tracer = Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(100000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    outer_child = tracer.total_s["outer"] - tracer.self_s["outer"]
    assert outer_child == pytest.approx(tracer.total_s["inner"])
    assert [s[4] for s in tracer.spans] == [1, None]  # inner's parent is outer


def test_rank_gallery_calls_equal_queries_on_retrieve_large(tmp_path):
    wl = RetrieveLarge(1, tmp_path)
    wl.setup()
    tally = Tally()
    tracer = _traced_cycle(wl, tally)
    assert len(wl.grounds) == 500
    assert tracer.calls["ranking.rank_gallery"] == 500
    assert tracer.calls["diffusion.diffuse_closed_form"] == 500
    assert tally.failed == 0


def test_traced_run_traces_a_setup_and_times_its_overhead(tmp_path):
    result, extra = child.run("sweep-iterative", 1, 1, True, tmp_path)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and set(metrics) == {m["name"] for m in layers.PER_LAYER}
    assert metrics["dataspace.generate_synthetic.calls"] == 1
    assert metrics["diffusion.build_graph.calls"] == 3
    assert metrics["trace.overhead_s"] == pytest.approx(
        metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"])


def test_untraced_run_spreads_its_set_ups_and_scales_by_host_speed(tmp_path):
    result, extra = child.run("sweep-iterative", 1, 1, False, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in child.END_TO_END}
    samples = extra["samples"]
    assert len(samples["chain_s"]) == 1
    assert len(samples["setup_s"]) >= child.SETUP_REPEATS
    # One calibration slice after every set-up and after the pass.
    assert samples["calibration_chunks"] >= len(samples["setup_s"]) + 1
    for name in ("setup_s", "chain_s"):
        assert result["metrics"][name]["value"] == pytest.approx(
            statistics.median(samples[name]) * samples["host_factor"])


def test_host_speed_calibrates_for_its_share_of_each_step():
    host = HostSpeed(share=0.5)
    host.after_step(0.0)
    assert host.chunks == 1  # a zero-length step still yields a factor
    host.after_step(0.2)
    assert host.busy_s >= 0.1
    assert host.factor == pytest.approx(
        hostspeed.NOMINAL_CHUNK_S * host.chunks / host.busy_s)


def test_sweep_in_steps_matches_one_ablation_call(tmp_path):
    wl = SweepIterative(2, tmp_path, {"num_landmarks": "10"})
    wl.setup()
    wl.run_pass(Tally())
    assert wl.result.to_json() == evalkit.run_ablation(
        "alpha-sweep", wl.cfg, split=wl.split, models=wl.models).to_json()


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_tracing_changes_no_cli_output(tmp_path):
    trees = []
    for traced in (False, True):
        wl = CliChain(3, tmp_path / str(traced), TINY)
        wl.setup()
        tally = Tally()
        _traced_cycle(wl, tally) if traced else _cycle(wl, tally)
        trees.append(_tree(wl.workdir / "pass0"))
    assert trees[0] == trees[1]
    assert any(name.startswith("gs/ranking-") for name in trees[0])


@pytest.mark.parametrize("workload", [RetrieveLarge, SweepIterative])
def test_tracing_changes_no_in_process_output(tmp_path, workload):
    wl = workload(3, tmp_path, {"num_landmarks": "10"})
    wl.setup()
    outputs = []
    for traced in (False, True):
        tally = Tally()
        _traced_cycle(wl, tally) if traced else _cycle(wl, tally)
        if workload is RetrieveLarge:
            out = [(r.query_id, r.gallery_ids, r.scores) for r in wl.rankings]
        else:
            out = wl.result.to_json()
        metrics = wl.check(tally)
        outputs.append((out, [repr(metrics[k]) for k in ("gs_cmc1", "gs_map", "gd_map")]))
        assert tally.failed == 0
    assert outputs[0] == outputs[1]
