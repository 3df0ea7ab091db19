"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The retrieval-quality criteria (6-8) train the full pipeline on the default
configuration for seeds 1, 2 and 3; the trained runs are shared through a
module-scoped fixture. Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion lines.
"""

import multiprocessing
import time
from dataclasses import replace

import numpy as np
import pytest

from plcd import cli, diffusion, evalkit, peerlearn, pipeline, rmac
from plcd.config import RunConfig
from plcd.seeds import substream

import harness
from support import params_digest, rank_gallery

SEEDS = (1, 2, 3)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {number}: {name}{suffix}")
    assert ok, f"acceptance {number}: {name}{suffix}"


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_suite():
    started = time.time()
    worst = harness.gradient_suite(num_seeds=20)
    elapsed = time.time() - started
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    report(1, "analytic gradients match central differences",
           not bad and elapsed < 30.0,
           f"max err {max(worst.values()):.2e} over {len(worst)} losses x 20 seeds, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. diffusion oracle
# ---------------------------------------------------------------------------

def test_criterion_2_diffusion_oracle():
    started = time.time()
    gap = harness.diffusion_oracle(num_graphs=100, max_n=200,
                                   alphas=(0.5, 0.9, 0.99))
    elapsed = time.time() - started
    report(2, "iterative and closed-form walks agree",
           gap < 1e-6 and elapsed < 60.0,
           f"sup-norm gap {gap:.2e} over 100 graphs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. hand-checkable instance
# ---------------------------------------------------------------------------

def test_criterion_3_hand_checkable_instance():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    f0 = np.array([1.0, 0.0])
    operator = diffusion.closed_form_operator(matrix, [0, 1], alpha=0.5)
    solved = diffusion.apply_operator(operator, f0[:, None])[:, 0]
    err = float(np.max(np.abs(solved - np.array([4.0 / 3.0, 2.0 / 3.0]))))
    iterated = diffusion.diffuse_iterative(matrix, f0, 0.5, max_iters=5000,
                                           tol=1e-15)
    prop = float(np.max(np.abs(iterated.state / iterated.state.sum()
                               - solved / solved.sum())))
    report(3, "2-node walk limit is proportional to (4/3, 2/3)",
           err < 1e-9 and prop < 1e-9, f"solve err {err:.1e}, agreement {prop:.1e}")


# ---------------------------------------------------------------------------
# 4. metric oracle
# ---------------------------------------------------------------------------

def _recount(ids, scores, relevant, k):
    ranks = {}
    for i, gid in enumerate(ids):
        rank = 1
        for j, other in enumerate(ids):
            if j == i:
                continue
            if scores[j] > scores[i] or (scores[j] == scores[i] and other < gid):
                rank += 1
        ranks[gid] = rank
    rel_ranks = sorted(ranks[g] for g in relevant)
    hit = 1.0 if rel_ranks[0] <= k else 0.0
    terms = [(i + 1) / rank for i, rank in enumerate(rel_ranks)]
    return hit, sum(terms) / len(terms)


def test_criterion_4_metric_oracle():
    rng = substream(0, "acceptance.metrics")
    mismatches = 0
    for _ in range(1000):
        gallery = int(rng.integers(2, 15))
        ids = [int(i) for i in rng.permutation(100)[:gallery]]
        scores = [float(s) for s in rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0],
                                               size=gallery)]
        n_rel = int(rng.integers(1, gallery + 1))
        relevant = set(int(g) for g in rng.choice(ids, size=n_rel, replace=False))
        k = int(rng.integers(1, gallery + 1))
        ranking = rank_gallery(0, ids, scores)
        hit, ap = _recount(ids, scores, relevant, k)
        metrics = evalkit.metrics_report([ranking], {0: relevant}, gallery, ks=(k,))
        if metrics.cmc[k] != hit:
            mismatches += 1
        if metrics.mean_ap != ap:
            mismatches += 1
    hand = rank_gallery(1, [10, 11, 12, 13], [0.9, 0.8, 0.7, 0.6])
    hand_ap = evalkit.metrics_report([hand], {1: {10, 12}}, 4).mean_ap
    hand_ok = hand_ap == (1.0 / 1.0 + 2.0 / 3.0) / 2.0 \
        and abs(hand_ap - 5.0 / 6.0) < 1e-12
    report(4, "CMC/mAP equal a brute-force recount on 1000 instances",
           mismatches == 0 and hand_ok,
           f"{mismatches} mismatches; AP hand case {hand_ap:.6f}")


# ---------------------------------------------------------------------------
# 5. R-MAC geometry
# ---------------------------------------------------------------------------

def test_criterion_5_rmac_geometry():
    grid = rmac.region_grid(12, (1, 2, 3, 4))
    count_ok = len(grid) == 30
    widths_ok = {r.scale: (r.width, r.height) for r in grid} == {
        1: (12, 12), 2: (9, 9), 3: (7, 7), 4: (5, 5)}
    bounds_ok = all(0 <= r.x0 and r.x0 + r.width <= 12
                    and 0 <= r.y0 and r.y0 + r.height <= 12 for r in grid)
    rng = substream(0, "acceptance.rmac")
    pooled_ok = True
    for _ in range(5):
        fm = rng.standard_normal((6, 12, 12))
        for region, pooled in zip(grid, rmac.pool_regions(fm[None], grid)[0, 1:]):
            brute = np.array([
                max(fm[ch, y, x]
                    for y in range(region.y0, region.y0 + region.height)
                    for x in range(region.x0, region.x0 + region.width))
                for ch in range(6)])
            pooled_ok &= bool(np.array_equal(pooled, brute))
    report(5, "12-cell four-scale region grid count/bounds/pooling",
           count_ok and widths_ok and bounds_ok and pooled_ok,
           f"{len(grid)} regions")


# ---------------------------------------------------------------------------
# 6-8. directional reproductions on trained pipelines
# ---------------------------------------------------------------------------

def train_seed(seed: int) -> tuple[dict, float]:
    """Default config at ``seed``: full training plus the ablation rows the
    criteria read, and the seconds training and the mapping rows took. The
    peer-step rows use landmark relevance; training never reads it, so the
    base model trains as at the default config."""
    cfg = replace(RunConfig(), seed=seed)
    split = pipeline.make_split(cfg)
    started = time.time()
    models = pipeline.train_all(cfg, split)
    mapping = evalkit.run_ablation("mapping-methods", cfg, split, models)
    core_elapsed = time.time() - started
    landmark_cfg = replace(cfg, ground_drone_relevance="landmark")
    peer = evalkit.run_ablation("peer-steps", landmark_cfg, split, models)
    names = ("base", "senior", "junior", "junior+B")
    return {"ground_satellite": dict(mapping.rows),
            "peer_steps": {name: report for name, (_, report)
                           in zip(names, peer.rows, strict=True)}}, core_elapsed


@pytest.fixture(scope="module")
def trained_runs():
    """``train_seed`` for seeds 1-3, in two fresh processes with one BLAS
    thread each."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("OPENBLAS_NUM_THREADS", "1")
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            trained = pool.map(train_seed, SEEDS)
    runs = {seed: run for seed, (run, _) in zip(SEEDS, trained)}
    runs["core_elapsed"] = sum(elapsed for _, elapsed in trained)
    return runs


def test_criterion_6_mapping_method_margins(trained_runs):
    margins = []
    for seed in SEEDS:
        gs = trained_runs[seed]["ground_satellite"]
        diff = gs["diffusion"].cmc[1]
        margins.append((seed, diff - gs["chain"].cmc[1],
                        diff - gs["direct-cosine"].cmc[1]))
    ok = all(m_chain >= 0.05 and m_direct >= 0.05 for _, m_chain, m_direct in margins)
    elapsed = trained_runs["core_elapsed"]
    detail = "; ".join(f"seed {s}: +{mc:.2f} vs chain, +{md:.2f} vs direct"
                       for s, mc, md in margins)
    report(6, "diffusion beats chaining and direct cosine by >= 5 points",
           ok and elapsed < 600.0, f"{detail}; {elapsed:.0f}s for 3 seeds")


def test_criterion_7_peer_step_ordering(trained_runs):
    order = ("base", "senior", "junior", "junior+B")
    means = {name: float(np.mean([trained_runs[s]["peer_steps"][name].cmc_at_1pct
                                  for s in SEEDS]))
             for name in order}
    values = [means[name] for name in order]
    ties = sum(1 for a, b in zip(values, values[1:]) if a == b)
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    strict_ends = values[0] < values[-1]
    ok = monotone and ties <= 1 and strict_ends
    detail = " <= ".join(f"{name}={means[name]:.3f}" for name in order)
    report(7, "peer-step CMC@1% ordering over seed-averaged rows", ok, detail)


def test_criterion_8_drone_references_help(trained_runs):
    ok = True
    details = []
    for seed in SEEDS:
        gs = trained_runs[seed]["ground_satellite"]
        direct = gs["direct-cosine"].cmc_at_1pct
        for mode in ("diffusion", "chain"):
            gain = gs[mode].cmc_at_1pct - direct
            ok &= gain > 0.0
            details.append(f"seed {seed} {mode} +{gain:.2f}")
    report(8, "drone-using modes beat the drone-free baseline",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. freeze and weight-sharing invariants
# ---------------------------------------------------------------------------

def test_criterion_9_freeze_and_sharing():
    from plcd import dataspace as ds
    from plcd import patchmodel

    gen = RunConfig(num_landmarks=4, num_sections=6, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=4, map_side=6,
                    latent_rank=8, noise_sigma=0.3, train_fraction=0.5, seed=2)
    split = ds.generate_synthetic(gen)
    peer_cfg = replace(gen, embed_dim=8, epochs_senior=2, epochs_junior=2,
                       batch_streets=4, num_negatives=2, scales=(1, 2),
                       encoder_tanh=True, lr_body=0.001, seed=4)
    sg, sd, _ = peerlearn.train_senior(split, peer_cfg)
    before = (params_digest(sg), params_digest(sd))
    _, jd, _ = peerlearn.train_junior(split, (sg, sd), peer_cfg)
    frozen_ok = (params_digest(sg), params_digest(sd)) == before

    patch_cfg = replace(peer_cfg, epochs_patch=2, batch_pairs=2)
    shared, _ = patchmodel.train_satellite_drone(split, jd, patch_cfg)
    # drone-satellite embeds both of its views with the one shared encoder
    shared_ok = pipeline.ENCODERS["drone-satellite"] == ("shared",)
    shared_ok &= shared.role == cli.ROLES["shared"]
    report(9, "senior frozen through step II; drone/satellite branches one object",
           frozen_ok and shared_ok)


# ---------------------------------------------------------------------------
# 10. end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join([
        "seed = 5", "num_landmarks = 4", "drones_per_landmark = 6",
        "grounds_per_landmark = 2", "channels = 4", "map_side = 6",
        "latent_rank = 8", "noise_sigma = 0.3", "embed_dim = 8",
        "epochs_senior = 2", "epochs_junior = 2", "epochs_patch = 2",
        "scales = 1,2", "k_graph = 4", "k_init = 4",
    ]) + "\n")

    outputs = []
    for run_dir in (tmp_path / "run-a", tmp_path / "run-b"):
        args = ["--config", str(cfg_path)]
        assert cli.main(["gen-data", *args, "--out", str(run_dir / "data")]) == 0
        assert cli.main(["train-gd", *args, "--data", str(run_dir / "data"),
                         "--out", str(run_dir / "models")]) == 0
        assert cli.main(["train-sd", *args, "--data", str(run_dir / "data"),
                         "--models", str(run_dir / "models"),
                         "--out", str(run_dir / "models")]) == 0
        assert cli.main(["retrieve", *args, "--data", str(run_dir / "data"),
                         "--models", str(run_dir / "models"),
                         "--mode", "diffusion", "--out", str(run_dir / "rank")]) == 0
        assert cli.main(["evaluate", *args, "--rankings", str(run_dir / "rank"),
                         "--data", str(run_dir / "data" / cli.TEST_DATA),
                         "--task", "ground-satellite",
                         "--out", str(run_dir / "metrics")]) == 0
        blob = {}
        for path in sorted((run_dir / "rank").glob("ranking-*.txt")):
            blob[path.name] = path.read_bytes()
        blob["metrics.json"] = (run_dir / "metrics" / "metrics.json").read_bytes()
        blob["metrics.csv"] = (run_dir / "metrics" / "metrics.csv").read_bytes()
        outputs.append(blob)
    ok = outputs[0] == outputs[1]
    report(10, "two identical runs produce byte-identical rankings and metrics",
           ok, f"{len(outputs[0]) - 2} ranking files compared")
