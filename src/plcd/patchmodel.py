"""Weight-shared satellite-drone encoder trained with triplets and patch
supervision from the frozen junior-peer drone branch.

The drone and satellite branches are one parameter set by construction, so
their weight sharing cannot drift. Each step samples a few identities, takes
their satellite record plus one drone per section, runs a semi-hard triplet
loss from drone anchors to satellite positives/negatives, and aligns the
student's region descriptors with the teacher's through a mean-squared
penalty. A step embeds its drones and satellites in one whole-image product
and its drones in one region product (the teacher's weight blocks built
once per run), scores every drone against the step's satellites in one
triplet call and every drone's regions in one patch call, and ends with one
backward through each product.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import encoder as enc
from . import losses, rmac
from .dataspace import SATELLITE, DatasetSplit, draw_per_section, drones_by_section
from .seeds import substream

if TYPE_CHECKING:
    from .config import RunConfig


def train_satellite_drone(split: DatasetSplit, teacher: enc.EncoderParams,
                          cfg: RunConfig, stage: str = "satellite-drone"):
    """Train the shared encoder in ``enc.Stage`` ``stage``; the teacher is
    read-only. A teacher whose input size is not the data's, or whose
    dimension is not ``cfg.embed_dim``, raises before training: the student
    could not match its regions.

    Returns (shared_params, log_lines); the log columns are
    ``epoch step loss_triplet loss_patch total``.
    """
    drones, sections = drones_by_section(split.train)
    satellites = {r.landmark: r for r in split.train if r.view == SATELLITE}
    landmarks = sorted(drones)
    if len(landmarks) < 2:
        raise ValueError("satellite-drone training needs at least 2 identities")
    missing = [lm for lm in landmarks if lm not in satellites]
    if missing:
        raise ValueError(f"missing satellite record for landmarks {missing}")

    map_shape = next(iter(satellites.values())).featmap.shape
    input_dim = int(np.prod(map_shape))
    if (teacher.input_dim, teacher.dim) != (input_dim, cfg.embed_dim):
        raise ValueError(f"teacher maps {teacher.input_dim} inputs to {teacher.dim} "
                         f"dimensions, but the data's maps hold {input_dim} values and "
                         f"the run config's embed_dim is {cfg.embed_dim}")
    params = enc.init_params(enc.ROLE_SHARED, cfg.embed_dim, input_dim, teacher.classes,
                             substream(cfg.seed, "patchmodel.init"), cfg.encoder_tanh)
    rng = substream(cfg.seed, "patchmodel.train")
    cache = rmac.PooledCache(rmac.config_grid(cfg, map_shape), map_shape)
    frozen = (teacher, cache.blocks(teacher))  # blocks once per run
    with enc.Stage(stage, [params], cfg.lr_head, cfg.lr_body, cfg.momentum) as run:
        for chunk in run.chunks(landmarks, cfg.batch_pairs, cfg.epochs_patch, rng):
            drone_recs = [r for lm in chunk for r in draw_per_section(drones, sections, lm, rng)]
            sat_recs = [satellites[lm] for lm in chunk]
            grads = enc.new_grads(params)
            value_triplet, value_patch = _shared_step(
                params, frozen, drone_recs, sat_recs, cache, cfg, grads)
            run.update(value_triplet, value_patch, value_triplet + cfg.lambda2 * value_patch,
                       [grads])
    return params, run.log


def _shared_step(params, teacher, drone_recs, sat_recs, cache, cfg, grads):
    """One step's losses, gradients added into ``grads``; ``teacher`` is (params, blocks)."""
    # Triplets run on unit embeddings (squared distance = 2 - 2cos), the same
    # geometry the cosine-based retrieval is scored in; raw embeddings leave
    # the hinge dominated by norm differences between the views.
    x = np.stack([r.featmap.ravel() for r in drone_recs + sat_recs])
    embs = enc.whole_embed(params, x)
    units = enc.unit_rows(embs)
    n_anchors = len(drone_recs)
    sat_slot = {r.landmark: i for i, r in enumerate(sat_recs)}
    triplet_values, tgrads = losses.semi_hard_triplet_loss(
        units[:n_anchors], np.array([sat_slot[r.landmark] for r in drone_recs]),
        units[n_anchors:], cfg.margin)
    g_units = np.concatenate([tgrads["anchors"], tgrads["gallery"]]) / n_anchors

    # region descriptors: row 0 (whole map) carries no patch term
    pooled = cache.stack(drone_recs)
    teacher_patches = rmac.region_embed(*teacher, pooled)[:, 1:]
    descs = rmac.region_embed(params, cache.blocks(params), pooled)
    patch_values, g_patches = losses.patch_mse_loss(teacher_patches, descs[:, 1:])

    enc.whole_backward(params, x, embs, g_units, grads, normalized=True)
    g_descs = np.zeros_like(descs)  # keeps the (k, n, dim) layout
    g_descs[:, 1:] = cfg.lambda2 * g_patches
    cache.backward(params, pooled, descs, g_descs, grads)
    return triplet_values.mean(), patch_values.sum()
