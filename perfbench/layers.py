"""What the traced run wraps, and the per-layer metrics it reports.

Nothing queues between layers in this single-threaded program, so each
layer reports its work as a call count and its busy time as self time.
Expected effects, per layer:

* ``cli.*.s``, text I/O, checkpoint I/O, training and the loss functions
  move ``chain_s`` on cli-chain and nothing on the other two workloads;
  ``dataspace.generate_synthetic`` moves ``setup_s`` on all three (the
  traced run traces one set-up before its pass).
* ``peerlearn.miner_hit_ratio`` (mined positives in the anchor's visible
  facet, over all miner calls) guards ``quality.gs_cmc1`` and
  ``quality.gd_map`` on cli-chain.
* ``DroneFeatures.feature`` and ``encoder.forward`` move ``chain_s`` on
  retrieve-large and sweep-iterative.
* The closed-form walk moves ``chain_s`` on retrieve-large; the iterative
  walk and ``build_graph`` move it on sweep-iterative. Neither moves
  cli-chain noticeably.
* Ranking, metrics and relevance move ``chain_s`` on all three.
"""

from __future__ import annotations

# TIMED targets report ``<target>.calls`` and ``<target>.self_s``, COUNTED
# ones their calls only. ATTRIBUTED ones are wrapped only so that their time
# counts for their own layer instead of for their caller's.
TIMED = (
    "dataspace.write_records", "dataspace.read_records",
    "dataspace.generate_synthetic", "encoder.save_params", "encoder.load_params",
    "peerlearn.train_senior", "peerlearn.train_junior",
    "peerlearn.mine_easy_triplet", "peerlearn.aggregate_feature",
    "peerlearn.aggregate_backward", "encoder.RegionProjector.embed",
    "encoder.RegionProjector.backward", "encoder.RegionProjector.flush",
    "encoder.sgd_step", "losses.consistency_loss", "losses.cross_entropy",
    "losses.soft_loss", "losses.semi_hard_triplet_loss", "losses.patch_mse_loss",
    "patchmodel.train_satellite_drone", "peerlearn.DroneFeatures.feature",
    "encoder.forward", "diffusion.build_graph", "diffusion.init_state",
    "diffusion.diffuse_closed_form", "diffusion.rank_satellites",
    "diffusion.diffuse_iterative", "ranking.rank_gallery",
    "evalkit.metrics_report", "pipeline.relevance_for",
)
COUNTED = ("rmac.extract_patch_features", "peerlearn._PooledCache.get")
ATTRIBUTED = (
    "pipeline.make_split", "pipeline.train_ground_drone",
    "pipeline.build_diffusion_index", "pipeline.ground_satellite_rankings",
    "pipeline.ground_drone_rankings", "pipeline.evaluate_mode",
    "evalkit.run_ablation", "diffusion.build_index", "diffusion.query",
)
CLI_COMMANDS = ("gen-data", "train-gd", "train-sd", "retrieve", "evaluate")
LAYERS = ("cli", "dataspace", "encoder", "peerlearn", "losses", "patchmodel",
          "rmac", "diffusion", "ranking", "evalkit", "pipeline")


def _spec(name: str, unit: str, better: str) -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = (
    [_spec(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    + [spec for t in TIMED for spec in (_spec(f"{t}.calls", "count", "lower"),
                                        _spec(f"{t}.self_s", "s", "lower"))]
    + [_spec("diffusion.diffuse_iterative.iterations", "count", "lower"),
       _spec("diffusion.diffuse_iterative.unconverged", "count", "lower")]
    + [_spec(f"{t}.calls", "count", "lower") for t in COUNTED]
    + [_spec("peerlearn.miner_hit_ratio", "fraction", "higher"),
       _spec("peerlearn.miner_hit_ratio.base", "count", "higher")]
    + [_spec(f"layer.{m}.self_s", "s", "lower") for m in LAYERS]
    + [_spec(f"quality.{q}", "fraction", "higher") for q in ("gs_cmc1", "gs_map", "gd_map")]
    + [_spec("trace.wall_s", "s", "lower"), _spec("trace.untraced_wall_s", "s", "lower"),
       _spec("trace.overhead_s", "s", "lower"), _spec("trace.unattributed_s", "s", "lower")]
)


def install(tracer, visible_facet, num_sections: int) -> None:
    """Wrap every target; ``visible_facet`` is the unwrapped
    ``dataspace.infer_visible_facet``, used to score the miner."""
    facets: dict[int, int] = {}

    def score_miner(tr, args, kwargs, mined):
        anchor = args[0] if args else kwargs["anchor"]
        if anchor.id not in facets:
            facets[anchor.id] = visible_facet(anchor, num_sections)
        tr.count("miner_hits", mined.positive.section == facets[anchor.id])

    def walk_stats(tr, args, kwargs, result):
        tr.count("walk_iterations", result.iterations)
        tr.count("walk_unconverged", not result.converged)

    hooks = {"peerlearn.mine_easy_triplet": score_miner,
             "diffusion.diffuse_iterative": walk_stats}
    for target in TIMED + COUNTED + ATTRIBUTED:
        tracer.wrap(target, hooks.get(target))


def per_layer_metrics(tracer, untraced_s: float, traced_s: float, quality: dict) -> dict:
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    values = {f"cli.{c}.s": tracer.total_s.get(f"cli.{c}", 0.0) for c in CLI_COMMANDS}
    for t in TIMED:
        values[f"{t}.calls"] = calls.get(t, 0)
        values[f"{t}.self_s"] = self_s.get(t, 0.0)
    values["diffusion.diffuse_iterative.iterations"] = counters.get("walk_iterations", 0)
    values["diffusion.diffuse_iterative.unconverged"] = counters.get("walk_unconverged", 0)
    for t in COUNTED:
        values[f"{t}.calls"] = calls.get(t, 0)
    mined = calls.get("peerlearn.mine_easy_triplet", 0)
    values["peerlearn.miner_hit_ratio"] = counters.get("miner_hits", 0) / mined if mined else 0.0
    values["peerlearn.miner_hit_ratio.base"] = mined
    for m in LAYERS:
        values[f"layer.{m}.self_s"] = sum(v for name, v in self_s.items()
                                          if name.split(".")[0] == m)
    values.update({f"quality.{q}": v for q, v in quality.items()})
    values["trace.wall_s"] = traced_s
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.unattributed_s"] = traced_s - sum(self_s.values())
    units = {spec["name"]: spec["unit"] for spec in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}
