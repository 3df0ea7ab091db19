"""End-to-end orchestration: data, training stages, retrieval modes, metrics.

The CLI subcommands and ``evalkit.run_ablation`` both route through this
module so scores are computed one way everywhere; the ablation suites
themselves live in ``evalkit``. ``TASKS`` maps each task to its (query view,
gallery view), ``MODES`` each mode to its task and ``ENCODERS`` each mode to
the ``TrainedModels`` fields it ranks with; ``rankings`` runs a mode and
``evaluate_mode`` scores it. The ground->satellite modes:

* ``diffusion``    - walk over the satellite-drone graph, seeded from
                     ground-drone similarities (the full pipeline),
* ``chain``        - hop through the single most similar drone reference,
* ``direct-cosine``- cosine between the ground and satellite embeddings,
                     ignoring drone references entirely.

``ground-drone`` and ``drone-satellite`` rank within one trained space.
Each view is embedded as one stack, every non-diffusion mode scores as one
(queries, gallery) einsum of unit rows, and ``ranking.rank_rows`` ranks all.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffusion as diff
from . import encoder as enc
from . import evalkit, patchmodel, peerlearn, rmac
from .config import RunConfig
from .dataspace import (DRONE, GROUND, SATELLITE, DatasetSplit, ImageRecord,
                        generate_synthetic, infer_visible_facet)
from .ranking import RankingList, rank_rows, row_order

TASKS = {"ground-drone": (GROUND, DRONE), "ground-satellite": (GROUND, SATELLITE),
         "drone-satellite": (DRONE, SATELLITE)}  # task -> (query view, gallery view)
MODES = {"diffusion": "ground-satellite", "chain": "ground-satellite",
         "direct-cosine": "ground-satellite", "ground-drone": "ground-drone",
         "drone-satellite": "drone-satellite"}  # mode -> the task it answers
_ALL_THREE = ("junior_ground", "junior_drone", "shared")
ENCODERS = {"diffusion": _ALL_THREE, "chain": _ALL_THREE,
            "direct-cosine": ("junior_ground", "shared"),
            "ground-drone": ("junior_ground", "junior_drone"),
            "drone-satellite": ("shared",)}  # mode -> the TrainedModels fields it ranks with


@dataclass
class TrainedModels:
    """The trained encoders; a stage leaves unset (None) each one it never reads."""
    senior_ground: enc.EncoderParams | None = None
    senior_drone: enc.EncoderParams | None = None
    junior_ground: enc.EncoderParams | None = None
    junior_drone: enc.EncoderParams | None = None
    shared: enc.EncoderParams | None = None
    logs: dict[str, list[str]] = field(default_factory=dict)


def make_split(cfg: RunConfig) -> DatasetSplit:
    return generate_synthetic(cfg)


def _stage(name: str, shared_branches: bool) -> str:
    return f"{name} of the one-model baseline" if shared_branches else name


def train_ground_drone(cfg: RunConfig, split: DatasetSplit, shared_branches: bool = False):
    """Step I, then one round of Step II; ``shared_branches`` makes both
    branches one encoder."""
    senior_ground, senior_drone, senior_log = peerlearn.train_senior(
        split, cfg, shared_branches=shared_branches, stage=_stage("Step I", shared_branches))
    junior_ground, junior_drone, junior_log = peerlearn.train_junior(
        split, (senior_ground, senior_drone), cfg, _stage("Step II", shared_branches))
    logs = {"senior": senior_log, "junior": junior_log}
    return (senior_ground, senior_drone), (junior_ground, junior_drone), logs


def train_all(cfg: RunConfig, split: DatasetSplit,
              shared_branches: bool = False) -> TrainedModels:
    (sg, sd), (jg, jd), logs = train_ground_drone(cfg, split, shared_branches)
    shared, logs["satdrone"] = patchmodel.train_satellite_drone(
        split, jd, cfg, _stage("satellite-drone", shared_branches))
    return TrainedModels(senior_ground=sg, senior_drone=sd, junior_ground=jg,
                         junior_drone=jd, shared=shared, logs=logs)


def train_one_model(cfg: RunConfig, split: DatasetSplit) -> TrainedModels:
    """One encoder for every view, trained through ``train_all``'s stages."""
    models = train_all(cfg, split, shared_branches=True)
    return replace(models, junior_ground=models.shared, junior_drone=models.shared)


# ---------------------------------------------------------------------------
# retrieval and evaluation
# ---------------------------------------------------------------------------

def _view_records(split: DatasetSplit, view: str) -> list[ImageRecord]:
    return [r for r in split.test if r.view == view]


def _ids(records: list[ImageRecord]) -> list[int]:
    return [r.id for r in records]


def _task_records(split: DatasetSplit, task: str):
    """The test split's (query, gallery) records of ``task``, neither empty."""
    queries, gallery = (_view_records(split, view) for view in TASKS[task])
    if not queries or not gallery:
        raise ValueError(f"test split lacks the query or gallery records of {task}")
    return queries, gallery


def _drone_records(split: DatasetSplit) -> list[ImageRecord]:
    """The test split's drone references, the bridge chain and diffusion cross."""
    drones = _view_records(split, DRONE)
    if not drones:
        raise ValueError("test split has no drone reference records")
    return drones


def _unit_embs(params: enc.EncoderParams, records: list[ImageRecord]) -> np.ndarray:
    return enc.unit_rows(enc.embed_records(params, records))


def cosine_scores(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """(q, g) scores of unit query rows against unit gallery rows (g, dim) in
    one einsum, which sums each score the same way in any batch; a
    (g, m+1, dim) gallery scores each item by its best row."""
    if gallery.ndim == 3:
        return np.einsum("qd,gkd->qgk", queries, gallery).max(axis=2)
    return np.einsum("qd,gd->qg", queries, gallery)


def drone_features(cfg: RunConfig, drone_params: enc.EncoderParams,
                   drones: list[ImageRecord]) -> np.ndarray:
    """(n, dim) drone-branch image features of a non-empty drone list."""
    return rmac.drone_features(drone_params, rmac.config_grid(cfg, drones[0].featmap.shape),
                               drones)


def ground_drone_rankings(cfg: RunConfig, split: DatasetSplit,
                          ground_params: enc.EncoderParams,
                          drone_params: enc.EncoderParams,
                          best_region: bool = False) -> list[RankingList]:
    grounds, drones = _task_records(split, "ground-drone")
    if best_region:
        gallery = rmac.gallery_descriptors(
            drone_params, rmac.config_grid(cfg, drones[0].featmap.shape), drones)
    else:
        gallery = enc.unit_rows(drone_features(cfg, drone_params, drones))
    return rank_rows(_ids(grounds), _ids(drones),
                     cosine_scores(_unit_embs(ground_params, grounds), gallery))


def drone_satellite_rankings(cfg: RunConfig, split: DatasetSplit,
                             shared: enc.EncoderParams) -> list[RankingList]:
    drones, sats = _task_records(split, "drone-satellite")
    scores = cosine_scores(_unit_embs(shared, drones), _unit_embs(shared, sats))
    return rank_rows(_ids(drones), _ids(sats), scores)


def build_diffusion_index(cfg: RunConfig, split: DatasetSplit,
                          models: TrainedModels) -> diff.DiffusionIndex:
    """The test split's diffusion index. The gd-space drone features, which
    only seed the walk, are computed on one worker thread while this thread
    embeds the sd-space nodes and builds their graph. Each side runs its own
    numpy calls on its own arrays, so the index has the bits of a serial
    build; the worker ends before this returns or raises."""
    drones, sats = _drone_records(split), _view_records(split, SATELLITE)
    with ThreadPoolExecutor(max_workers=1) as worker:
        drone_gd = worker.submit(drone_features, cfg, models.junior_drone, drones)
        return diff.build_index(
            drone_sd_embs=enc.embed_records(models.shared, drones),
            sat_sd_embs=enc.embed_records(models.shared, sats),
            drone_gd_embs=drone_gd,
            sat_ids=_ids(sats),
            cfg=cfg,
        )


def ground_satellite_rankings(cfg: RunConfig, split: DatasetSplit,
                              models: TrainedModels, mode: str,
                              index: diff.DiffusionIndex | None = None,
                              ) -> list[RankingList]:
    if MODES.get(mode) != "ground-satellite":
        raise ValueError(f"unknown ground-satellite mode {mode!r}; valid: "
                         f"{', '.join(m for m, t in MODES.items() if t == 'ground-satellite')}")
    grounds, sats = _task_records(split, "ground-satellite")
    if mode == "diffusion":
        if index is None:
            index = build_diffusion_index(cfg, split, models)
        return diff.query(index, cfg, _ids(grounds),
                          enc.embed_records(models.junior_ground, grounds))
    queries = _unit_embs(models.junior_ground, grounds)
    if mode == "chain":
        # each query hops to its most similar drone (lowest id on a tie) and
        # ranks by that drone's satellite-drone embedding
        drones = _drone_records(split)
        drone_gd = enc.unit_rows(drone_features(cfg, models.junior_drone, drones))
        hops = row_order(cosine_scores(queries, drone_gd), _ids(drones))[:, 0]
        queries = _unit_embs(models.shared, drones)[hops]
    gallery = _unit_embs(models.shared, sats)
    return rank_rows(_ids(grounds), _ids(sats), cosine_scores(queries, gallery))


def rankings(cfg: RunConfig, split: DatasetSplit, models: TrainedModels, mode: str,
             index: diff.DiffusionIndex | None = None,
             best_region: bool = False) -> list[RankingList]:
    """One mode's rankings of the test split; an option reaches only the modes
    of the ``*_rankings`` function that takes it."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; valid: {', '.join(MODES)}")
    if MODES[mode] == "ground-drone":
        return ground_drone_rankings(cfg, split, models.junior_ground, models.junior_drone,
                                     best_region=best_region)
    if MODES[mode] == "drone-satellite":
        return drone_satellite_rankings(cfg, split, models.shared)
    return ground_satellite_rankings(cfg, split, models, mode, index=index)


def relevance_for(records: list[ImageRecord], task: str, cfg: RunConfig,
                  num_sections: int) -> dict[int, set]:
    """Query id -> the gallery ids of its landmark, for one task over a record
    set; ``facet`` relevance keeps only a ground query's visible-facet drones."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; valid: {', '.join(TASKS)}")
    query_view, gallery_view = TASKS[task]
    gallery = [r for r in records if r.view == gallery_view]
    facets = task == "ground-drone" and cfg.ground_drone_relevance == "facet"
    rel = {}
    for q in records:
        if q.view == query_view:
            facet = infer_visible_facet(q, num_sections) if facets else None
            rel[q.id] = {r.id for r in gallery if r.landmark == q.landmark
                         and (facet is None or r.section == facet)}
    return rel


def task_report(cfg: RunConfig, records: list[ImageRecord], rankings: list[RankingList],
                task: str) -> evalkit.MetricsReport:
    """Metrics of one task's rankings, with relevance and the gallery size
    taken from ``records`` (their sections counted by ``cfg.num_sections``)."""
    relevance = relevance_for(records, task, cfg, cfg.num_sections)
    gallery_size = sum(1 for r in records if r.view == TASKS[task][1])
    return evalkit.metrics_report(rankings, relevance, gallery_size)


def evaluate_mode(cfg: RunConfig, split: DatasetSplit, models: TrainedModels,
                  mode: str, **options) -> evalkit.MetricsReport:
    """Metrics of ``rankings(cfg, split, models, mode, **options)`` on its task."""
    return task_report(cfg, split.test, rankings(cfg, split, models, mode, **options),
                       MODES[mode])
