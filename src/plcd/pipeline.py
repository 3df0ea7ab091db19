"""End-to-end orchestration: data, training stages, retrieval modes, metrics.

The CLI subcommands and the ablation suites both route through this module so
scores are computed one way everywhere. Retrieval modes for the
ground->satellite task:

* ``diffusion``    - walk over the satellite-drone graph, seeded from
                     ground-drone similarities (the full pipeline),
* ``chain``        - hop through the single most similar drone reference,
* ``direct-cosine``- cosine between the ground and satellite embeddings,
                     ignoring drone references entirely.

``ground-drone`` and ``drone-satellite`` rank within one trained space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffusion as diff
from . import encoder as enc
from . import evalkit, patchmodel, peerlearn, rmac
from .config import RunConfig
from .dataspace import (DRONE, GROUND, SATELLITE, DatasetSplit, ImageRecord,
                        generate_synthetic, infer_visible_facet)
from .ranking import RankingList, rank_gallery

MODES = ("diffusion", "chain", "direct-cosine", "ground-drone", "drone-satellite")


@dataclass
class TrainedModels:
    senior_ground: enc.EncoderParams
    senior_drone: enc.EncoderParams
    junior_ground: enc.EncoderParams
    junior_drone: enc.EncoderParams
    shared: enc.EncoderParams
    logs: dict[str, list[str]]


def make_split(cfg: RunConfig) -> DatasetSplit:
    return generate_synthetic(cfg.gen_config())


def train_ground_drone(cfg: RunConfig, split: DatasetSplit):
    """Step I + Step II, with the optional senior<-junior swap rounds."""
    peer_cfg = cfg.peer_config()
    senior = peerlearn.train_senior(split, peer_cfg)
    senior_ground, senior_drone, senior_log = senior
    junior_ground, junior_drone, junior_log = peerlearn.train_junior(
        split, (senior_ground, senior_drone), peer_cfg)
    for round_idx in range(1, cfg.peer_iterations):
        senior_ground, senior_drone = junior_ground, junior_drone
        junior_ground, junior_drone, junior_log = peerlearn.train_junior(
            split, (senior_ground, senior_drone), peer_cfg,
            round_tag=f".round{round_idx}")
    logs = {"senior": senior_log, "junior": junior_log}
    return (senior_ground, senior_drone), (junior_ground, junior_drone), logs


def train_all(cfg: RunConfig, split: DatasetSplit) -> TrainedModels:
    (sg, sd), (jg, jd), logs = train_ground_drone(cfg, split)
    shared, sd_log = patchmodel.train_satellite_drone(split, jd, cfg.patch_config())
    logs["satdrone"] = sd_log
    return TrainedModels(senior_ground=sg, senior_drone=sd, junior_ground=jg,
                         junior_drone=jd, shared=shared, logs=logs)


def train_base_two_branch(cfg: RunConfig, split: DatasetSplit):
    """Plain two-branch baseline: same budget as Step I, no mining."""
    g, d, _ = peerlearn.train_senior(split, cfg.peer_config(), mining=False)
    return g, d


def train_one_model(cfg: RunConfig, split: DatasetSplit) -> TrainedModels:
    """One encoder for every view, trained through the same two stages."""
    peer_cfg = cfg.peer_config()
    sg, sdr, _ = peerlearn.train_senior(split, peer_cfg, shared_branches=True)
    jg, jdr, _ = peerlearn.train_junior(split, (sg, sdr), peer_cfg,
                                        shared_branches=True)
    shared, _ = patchmodel.train_satellite_drone(split, jdr, cfg.patch_config())
    return TrainedModels(senior_ground=sg, senior_drone=sdr, junior_ground=shared,
                         junior_drone=shared, shared=shared, logs={})


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def _view_records(split: DatasetSplit, view: str) -> list[ImageRecord]:
    return [r for r in split.test if r.view == view]


def _normalized_embs(params: enc.EncoderParams, records) -> list[np.ndarray]:
    return [enc.forward(params, r, normalize=True) for r in records]


def region_grid_for(cfg: RunConfig, map_shape) -> list[rmac.Region]:
    return rmac.region_grid((map_shape[1], map_shape[2]), cfg.scales,
                            cfg.width_table_dict(), cfg.reference_side)


def drone_features(cfg: RunConfig, drone_params: enc.EncoderParams,
                   map_shape) -> peerlearn.DroneFeatures:
    return peerlearn.DroneFeatures(drone_params, region_grid_for(cfg, map_shape),
                                   map_shape)


def ground_drone_rankings(cfg: RunConfig, split: DatasetSplit,
                          ground_params: enc.EncoderParams,
                          drone_params: enc.EncoderParams,
                          best_region: bool = False) -> list[RankingList]:
    grounds = _view_records(split, GROUND)
    drones = _view_records(split, DRONE)
    if not grounds or not drones:
        raise ValueError("test split lacks ground or drone records")
    queries = [(r.id, enc.forward(ground_params, r, normalize=True)) for r in grounds]
    feats = drone_features(cfg, drone_params, drones[0].featmap.shape)
    if best_region:
        descriptors = [peerlearn.gallery_descriptors(
            drone_params, r, feats.cache.grid, feats.cache, feats.projector)
            for r in drones]
        return [rank_gallery(qid, [d.id for d in drones],
                             [peerlearn.max_region_score(q, desc)
                              for desc in descriptors])
                for qid, q in queries]
    gallery = [feats.feature(d, normalize=True) for d in drones]
    return [rank_gallery(qid, [d.id for d in drones],
                         [float(g @ q) for g in gallery])
            for qid, q in queries]


def drone_satellite_rankings(cfg: RunConfig, split: DatasetSplit,
                             shared: enc.EncoderParams) -> list[RankingList]:
    drones = _view_records(split, DRONE)
    sats = _view_records(split, SATELLITE)
    if not drones or not sats:
        raise ValueError("test split lacks drone or satellite records")
    gallery = _normalized_embs(patchmodel.satellite_branch(shared), sats)
    out = []
    for r in drones:
        q = enc.forward(patchmodel.drone_branch(shared), r, normalize=True)
        out.append(rank_gallery(r.id, [s.id for s in sats],
                                [float(g @ q) for g in gallery]))
    return out


def build_diffusion_index(cfg: RunConfig, split: DatasetSplit, models: TrainedModels,
                          use_drones: bool = True) -> diff.DiffusionIndex:
    drones = _view_records(split, DRONE) if use_drones else []
    sats = _view_records(split, SATELLITE)
    gd_feats = (drone_features(cfg, models.junior_drone, drones[0].featmap.shape)
                if drones else None)
    return diff.build_index(
        drone_sd_embs=[enc.forward(models.shared, r) for r in drones],
        sat_sd_embs=[enc.forward(models.shared, r) for r in sats],
        drone_gd_embs=[gd_feats.feature(r) for r in drones],
        drone_ids=[r.id for r in drones],
        sat_ids=[r.id for r in sats],
        cfg=cfg.diffusion_config(),
    )


def ground_satellite_rankings(cfg: RunConfig, split: DatasetSplit,
                              models: TrainedModels, mode: str,
                              alpha: float | None = None,
                              use_drones: bool = True,
                              index: diff.DiffusionIndex | None = None,
                              ) -> list[RankingList]:
    grounds = _view_records(split, GROUND)
    sats = _view_records(split, SATELLITE)
    if not grounds or not sats:
        raise ValueError("test split lacks ground or satellite records")
    if mode == "diffusion":
        if index is None:
            index = build_diffusion_index(cfg, split, models, use_drones=use_drones)
        return diff.query(index, [r.id for r in grounds],
                          [enc.forward(models.junior_ground, r) for r in grounds],
                          alpha=alpha)
    if mode == "direct-cosine":
        gallery = _normalized_embs(patchmodel.satellite_branch(models.shared), sats)
        return [rank_gallery(r.id, [s.id for s in sats],
                             [float(g @ enc.forward(models.junior_ground, r,
                                                    normalize=True))
                              for g in gallery])
                for r in grounds]
    if mode == "chain":
        drones = _view_records(split, DRONE) if use_drones else []
        if not drones:
            raise ValueError("chain mode needs drone reference records")
        gd_feats = drone_features(cfg, models.junior_drone, drones[0].featmap.shape)
        drone_gd = [gd_feats.feature(d, normalize=True) for d in drones]
        drone_sd = _normalized_embs(patchmodel.drone_branch(models.shared), drones)
        gallery = _normalized_embs(patchmodel.satellite_branch(models.shared), sats)
        out = []
        for r in grounds:
            q = enc.forward(models.junior_ground, r, normalize=True)
            sims = [float(d @ q) for d in drone_gd]
            best = min(range(len(drones)), key=lambda i: (-sims[i], drones[i].id))
            hop = drone_sd[best]
            out.append(rank_gallery(r.id, [s.id for s in sats],
                                    [float(g @ hop) for g in gallery]))
        return out
    raise ValueError(f"unknown ground-satellite mode {mode!r}; "
                     f"valid: diffusion, chain, direct-cosine")


# ---------------------------------------------------------------------------
# relevance and evaluation
# ---------------------------------------------------------------------------

def relevance_for(records: list[ImageRecord], task: str, cfg: RunConfig,
                  num_sections: int) -> dict[int, set]:
    """Query id -> relevant gallery ids for one task over a record set."""
    grounds = [r for r in records if r.view == GROUND]
    drones = [r for r in records if r.view == DRONE]
    sats = [r for r in records if r.view == SATELLITE]
    if task == "ground-drone":
        rel = {}
        for g in grounds:
            if cfg.ground_drone_relevance == "facet":
                facet = infer_visible_facet(g, num_sections)
                rel[g.id] = {d.id for d in drones
                             if d.landmark == g.landmark and d.section == facet}
            else:
                rel[g.id] = {d.id for d in drones if d.landmark == g.landmark}
        return rel
    if task == "ground-satellite":
        return {g.id: {s.id for s in sats if s.landmark == g.landmark}
                for g in grounds}
    if task == "drone-satellite":
        return {d.id: {s.id for s in sats if s.landmark == d.landmark}
                for d in drones}
    raise ValueError(f"unknown task {task!r}")


def query_landmarks_for(records: list[ImageRecord], task: str) -> dict[int, int]:
    view = DRONE if task == "drone-satellite" else GROUND
    return {r.id: r.landmark for r in records if r.view == view}


def _report(cfg: RunConfig, split: DatasetSplit, rankings: list[RankingList],
            task: str) -> evalkit.MetricsReport:
    relevance = relevance_for(split.test, task, cfg, split.num_sections)
    gallery_view = DRONE if task == "ground-drone" else SATELLITE
    gallery_size = len(_view_records(split, gallery_view))
    landmarks = (query_landmarks_for(split.test, task)
                 if cfg.cmc_per_landmark else None)
    return evalkit.metrics_report(rankings, relevance, gallery_size,
                                  query_landmarks=landmarks)


def evaluate_ground_drone(cfg: RunConfig, split: DatasetSplit, ground_params,
                          drone_params, best_region: bool = False):
    rankings = ground_drone_rankings(cfg, split, ground_params, drone_params,
                                     best_region=best_region)
    return _report(cfg, split, rankings, "ground-drone")


def evaluate_mode(cfg: RunConfig, split: DatasetSplit, models: TrainedModels,
                  mode: str, alpha: float | None = None,
                  index: diff.DiffusionIndex | None = None):
    rankings = ground_satellite_rankings(cfg, split, models, mode, alpha=alpha,
                                         index=index)
    return _report(cfg, split, rankings, "ground-satellite")


def evaluate_task(cfg: RunConfig, split: DatasetSplit, models: TrainedModels,
                  task: str, shared: bool = False):
    if task == "ground-drone":
        return evaluate_ground_drone(cfg, split, models.junior_ground,
                                     models.junior_drone)
    if task == "drone-satellite":
        rankings = drone_satellite_rankings(cfg, split, models.shared)
        return _report(cfg, split, rankings, "drone-satellite")
    if task == "ground-satellite":
        return evaluate_mode(cfg, split, models, "diffusion")
    raise ValueError(f"unknown task {task!r}")


def tau_sweep(cfg: RunConfig, split: DatasetSplit):
    """Retrain the junior at each temperature; rows of ground->drone metrics."""
    peer_cfg = cfg.peer_config()
    senior_g, senior_d, _ = peerlearn.train_senior(split, peer_cfg)
    rows = []
    for tau in cfg.tau_sweep:
        jg, jd, _ = peerlearn.train_junior(split, (senior_g, senior_d),
                                           replace(peer_cfg, tau=tau))
        rows.append((f"tau={tau}", evaluate_ground_drone(cfg, split, jg, jd)))
    return rows
