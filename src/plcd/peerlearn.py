"""Two-step ground-drone training with a frozen senior guiding a junior.

Step I trains the senior pair on mined triplets from its first epoch: the
easiest positive is the top-1 drone by current cosine similarity in drone
space from a batch holding one drone per direction section, the negatives
are the top-N most similar other-identity drones. Step II freezes the senior
and trains the junior, which starts as a copy of it, for one round on
doublets: the hard objective is kept, and the senior's sharp similarity
distribution over the whole-image and region descriptors of every section's
drone supervises the junior's distribution at temperature 1. Both steps
train at constant rates, Step II's scaled by ``junior_lr_scale``.

Each optimization step is batched across its anchors (``_Step``): one
whole-image product embeds the ground anchors and one ``rmac`` region
product the batch's drones (the frozen senior's weight blocks built once per
run). One ``mine_rows`` call picks every anchor's triplet from those rows,
in one masked (anchors, candidates) score matrix; ``_draw`` turns Step I's
and Step II's rules into row indices. The hard and soft losses then read all
anchors' rows at once, one stacked call per objective (``_hard_terms``,
``_soft_terms``), shared rows scatter-add with the bits of ``np.add.at``,
and one backward per path ends the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import encoder as enc
from . import losses, rmac
from .dataspace import (GROUND, DatasetSplit, DroneIndex, ImageRecord, draw_per_section,
                        drones_by_section)
from .ranking import row_order
from .seeds import substream

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class _TrainContext:
    """Indexes over the train split shared by both training steps."""

    grounds: list[ImageRecord]
    drones: DroneIndex
    class_index: dict[int, int]
    map_shape: tuple[int, int, int]
    sections: list[int]

    @property
    def num_classes(self) -> int:
        return len(self.class_index)


def build_context(split: DatasetSplit) -> _TrainContext:
    grounds = [r for r in split.train if r.view == GROUND]
    if not grounds:
        raise ValueError("train split has no ground records")
    drones, sections = drones_by_section(split.train)
    if not drones:
        raise ValueError("train split has no drone records")
    landmarks = sorted({r.landmark for r in split.train})
    return _TrainContext(
        grounds=grounds,
        drones=drones,
        class_index={lm: i for i, lm in enumerate(landmarks)},
        map_shape=grounds[0].featmap.shape,
        sections=sections,
    )


def mine_rows(anchors: np.ndarray, candidates: np.ndarray, ids: np.ndarray,
              positive: np.ndarray, pool: np.ndarray, num_negatives: int):
    """Each anchor row's easiest positive and top-N hardest negatives by cosine.

    ``anchors`` (m, d) and ``candidates`` (n, d) are feature rows, ``ids``
    the candidates' record ids, ``positive`` and ``pool`` disjoint (m, n)
    masks of each anchor's positive batch (one drone per direction section
    of its landmark) and negative pool (drones of other identities; a drone
    may sit in a pool more than once). Rows are unit-normalized once and
    scored by one ``einsum``, so byte-identical candidates score the same
    bits wherever they sit; each pick is ``row_order`` of the scores, -inf
    off its mask (highest first, ties on the lowest record id, a -0.0 score
    tying 0.0, then on position). Returns candidate indices: the positive
    (m,), the negatives (m, k) with k = min(num_negatives, largest pool) and
    the (m, k) ``live`` mask of anchors holding fewer than k.
    """
    if num_negatives < 1:
        raise ValueError(f"num_negatives must be >= 1 (got {num_negatives})")
    if not positive.any(axis=1).all():
        raise ValueError("every anchor needs a positive candidate")
    if not pool.any(axis=1).all():
        raise ValueError("every anchor needs a non-empty negative pool")
    if (positive & pool).any():
        raise ValueError("positive and pool masks overlap")
    scores = np.einsum("md,nd->mn", enc.unit_rows(anchors), enc.unit_rows(candidates))
    best = row_order(np.where(positive, scores, -np.inf), ids)[:, 0]
    sizes = pool.sum(axis=1)
    width = min(num_negatives, int(sizes.max()))
    hardest = row_order(np.where(pool, scores, -np.inf), ids)[:, :width]
    return best, hardest, np.arange(width) < sizes[:, None]


class _Step:
    """One optimization step of a peer pair, batched across its anchors.

    Drone records go through the region path: each drone of the batch's
    positive batches (which also hold every negative) is embedded once with
    the current drone parameters, and with the frozen senior's in Step II;
    the anchors join that stack, ahead of the drones, only when the step
    mines (in drone space), and never for the senior, whose rows only the
    soft loss reads. The anchors go through the whole-image path in one
    product with the current ground parameters (and the frozen senior
    ground's). With shared branches the miner ranks every candidate by its
    whole-image embedding too, so then the drones join that product instead.
    ``senior`` is (ground, drone, the drone's weight blocks, built once per run).

    The losses read these rows, back their logit gradients through the
    classifier heads, and add into one gradient array per path (``g_whole``,
    ``g_feats`` for image features, ``g_descs`` for region descriptors);
    ``backward`` chains those through one backward per path.
    """

    def __init__(self, params_list: list[enc.EncoderParams], cache: rmac.PooledCache,
                 entries, mining: bool = False,
                 senior: tuple[enc.EncoderParams, enc.EncoderParams, np.ndarray] | None = None):
        self.mining = mining
        self.ground, self.drone = params_list[0], params_list[-1]
        self.grads = [enc.new_grads(p) for p in params_list]
        shared = self.ground is self.drone
        anchors = [anchor for anchor, _ in entries]
        drones = list({r.id: r for _, positives in entries for r in positives}.values())
        region = anchors + drones if mining and not shared else drones
        whole = anchors + drones if mining and shared else anchors

        self.row = {r.id: i for i, r in enumerate(region)}
        # the miner's candidates: the positive batches in entry order, repeats
        # kept; each anchor's own batch is its positives, other landmarks' its pool
        self.anchors, self.candidates = anchors, [r for _, p in entries for r in p]
        self.cand_rows = np.array(self.rows(self.candidates))
        block = np.repeat(np.arange(len(entries)), [len(p) for _, p in entries])
        self.positive = block == np.arange(len(entries))[:, None]
        self.pool = (np.array([r.landmark for r in self.candidates])
                     != np.array([a.landmark for a in anchors])[:, None])
        self.drone_start = len(region) - len(drones)  # drones close the stack
        self.cache, self.pooled = cache, cache.stack(region)
        self.descs = rmac.region_embed(self.drone, cache.blocks(self.drone), self.pooled)
        self.feats, self.norms = rmac.aggregate_feature(self.descs)
        self.g_feats = np.zeros_like(self.feats)
        self.g_descs = np.zeros_like(self.descs)  # laid out like descs

        self.whole_row = {r.id: i for i, r in enumerate(whole)}
        self.x = np.stack([r.featmap.ravel() for r in whole])
        self.whole = enc.whole_embed(self.ground, self.x)
        self.g_whole = np.zeros_like(self.whole)

        self.senior_descs = self.senior_whole = None
        if senior is not None:
            self.senior_whole = enc.whole_embed(senior[0], self.x[: len(anchors)])
            self.senior_descs = rmac.region_embed(*senior[1:], self.pooled[:, self.drone_start:])

    def rows(self, records: list[ImageRecord]) -> list[int]:
        return [self.row[r.id] for r in records]

    def mine(self, num_negatives: int):
        """``mine_rows`` on the rows this step holds: whole-image rows with
        shared branches, region-aggregate rows otherwise (the anchors open
        each stack that holds them)."""
        if self.ground is self.drone:
            a, c = self.whole, self.whole[[self.whole_row[r.id] for r in self.candidates]]
        else:
            a, c = self.feats, self.feats[self.cand_rows]
        return mine_rows(a[: len(self.anchors)], c, np.array([r.id for r in self.candidates]),
                         self.positive, self.pool, num_negatives)

    def backward(self) -> None:
        enc.whole_backward(self.ground, self.x, self.whole, self.g_whole, self.grads[0])
        rmac.aggregate_backward(self.descs, self.norms, self.g_feats, self.g_descs)
        self.cache.backward(self.drone, self.pooled, self.descs, self.g_descs, self.grads[-1])


def _hard_terms(step: _Step, p_rows: np.ndarray, neg_rows: np.ndarray, live: np.ndarray,
                class_index: dict[int, int]) -> np.ndarray:
    """Consistency + per-branch cross-entropy for the step's anchors, one
    stacked call per objective; returns the per-anchor values.

    The ground anchors read their whole-image rows; drone records read the
    step's region-aggregate features (``p_rows``, ``neg_rows``: rows of
    ``step.feats``), so the hard objective trains the region descriptors
    directly. Anchors can hold fewer negatives than others (off the ``live``
    mask an entry reads row 0), two anchors can share a positive and a
    record can sit twice in a negative pool, so drone rows scatter-add.
    """
    i = slice(len(step.anchors))  # the anchors open the whole-image stack
    a, p = step.whole[i], step.feats[p_rows]

    negatives = step.feats[np.where(live, neg_rows, 0)]
    values, grads = losses.consistency_loss(a, p, negatives, live)
    labels = np.array([class_index[r.landmark] for r in step.anchors])
    ce_a, g_logits_a = losses.cross_entropy(enc.logits_from_embedding(step.ground, a), labels)
    ce_p, g_logits_p = losses.cross_entropy(enc.logits_from_embedding(step.drone, p), labels)

    step.g_whole[i] += grads["anchors"] + enc.classifier_backward(
        step.ground, a, g_logits_a, step.grads[0])
    losses.scatter_add(step.g_feats, p_rows, grads["positives"] + enc.classifier_backward(
        step.drone, p, g_logits_p, step.grads[-1]))
    losses.scatter_add(step.g_feats, neg_rows[live], grads["negatives"][live])
    return values + ce_a + ce_p


def _soft_terms(step: _Step, rows: np.ndarray, tau: float, lambda1: float) -> np.ndarray:
    """Distillation over whole+region descriptors for the step's doublets
    (``rows``: (n, P) region rows), one (anchors, P*k) similarity matrix per
    peer; returns the per-anchor values. Anchors of one landmark can share
    drones: their region rows scatter-add."""
    n, (per_image, dim) = len(step.anchors), step.descs.shape[1:]
    i = slice(n)
    senior = losses.similarity_log_probs(
        step.senior_whole[i],
        step.senior_descs[rows - step.drone_start].reshape(n, -1, dim), tau)
    entries = step.descs[rows].reshape(n, -1, dim)
    junior = losses.similarity_log_probs(step.whole[i], entries, 1.0)

    values, g_dots = losses.soft_loss(senior, junior)
    step.g_whole[i] += lambda1 * np.einsum("nk,nkd->nd", g_dots, entries)
    g_entries = g_dots[:, :, None] * step.whole[i][:, None, :]
    losses.scatter_add(step.g_descs, rows,
                       lambda1 * g_entries.reshape(rows.shape + (per_image, dim)))
    return values


def _epoch_batches(ctx, cfg, rng):
    """Yield lists of (anchor, positive_batch) with per-batch drone pools."""
    order = rng.permutation(len(ctx.grounds))
    for start in range(0, len(order), cfg.batch_streets):
        chunk = [ctx.grounds[i] for i in order[start : start + cfg.batch_streets]]
        if len(chunk) < 2:
            continue  # a lone anchor has no in-batch negatives
        yield [(anchor, draw_per_section(ctx.drones, ctx.sections, anchor.landmark, rng))
               for anchor in chunk]


def _init_pair(ctx, cfg, stream_prefix):
    """The two branches start independent: cross-branch similarity begins at
    chance and only the consistency pull aligns the spaces, so retrieval
    quality measures what training built rather than what init gave away."""
    input_dim = int(np.prod(ctx.map_shape))
    g = enc.init_params(enc.ROLE_GROUND, cfg.embed_dim, input_dim, ctx.num_classes,
                        substream(cfg.seed, f"{stream_prefix}.ground"), cfg.encoder_tanh)
    d = enc.init_params(enc.ROLE_DRONE, cfg.embed_dim, input_dim, ctx.num_classes,
                        substream(cfg.seed, f"{stream_prefix}.drone"), cfg.encoder_tanh)
    return g, d


def _pad(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged index lists as one (n, width) array padded with 0, and its live mask."""
    sizes = np.array([len(x) for x in lists])
    live = np.arange(sizes.max()) < sizes[:, None]
    padded = np.zeros(live.shape, dtype=int)
    padded[live] = np.concatenate(lists)
    return padded, live


def _draw(step: _Step, cfg: RunConfig, rng, junior: bool):
    """The step's picks as candidate indices: (positive (n,), negatives
    (n, k), live (n, k), doublets (n, P) or None).

    Step I takes the miner's picks, or random ones when not mining. Step II
    works the difficult positives: the senior only ever trained on the
    easiest one, so the junior keeps the mined negatives and draws its
    positive across all sections; the soft loss's doublet is every section.
    The draws run per anchor in batch order.
    """
    mined = step.mine(cfg.num_negatives) if step.mining else None
    if mined is not None and not junior:
        return (*mined, None)
    positive, negatives, doublets = [], [], []
    for own, pool in zip(step.positive, step.pool):
        own = np.flatnonzero(own)
        positive.append(own[int(rng.integers(len(own)))])
        doublets.append(own)
        if not junior:
            pool = np.flatnonzero(pool)
            negatives.append(pool[rng.permutation(len(pool))[: cfg.num_negatives]])
    if junior:
        return (np.array(positive), *mined[1:], np.array(doublets))
    return (np.array(positive), *_pad(negatives), None)


def _train_pair(ctx, cfg, ground_params, drone_params, rng, epochs: int,
                rate_scale: float, mining: bool, senior=None) -> list[str]:
    """The loop both training steps share. Per batch: one ``_Step``, which
    mines when ``mining``; one ``_draw`` (Step II when ``senior`` is given);
    one stacked call per objective; one step backward and one SGD step per
    parameter set, at a constant rate. Returns the log lines."""
    cache = rmac.PooledCache(rmac.config_grid(cfg, ctx.map_shape), ctx.map_shape)
    if senior is not None:  # frozen, so its weight blocks serve every step
        senior = (*senior, cache.blocks(senior[1]))
    shared = drone_params is ground_params
    params_list = [ground_params] if shared else [ground_params, drone_params]
    states = [enc.new_sgd_state(p, cfg.lr_head * rate_scale, cfg.lr_body * rate_scale,
                                cfg.momentum) for p in params_list]
    log: list[str] = []
    for epoch in range(epochs):
        for step_idx, entries in enumerate(_epoch_batches(ctx, cfg, rng)):
            # ``step`` holds the previous step until this one is built, so its
            # buffers are freed only after the new ones are allocated. Freeing
            # each step at its end lets glibc trim the heap top: a default
            # 5-epoch train_all (seed 201, one BLAS thread) then took 10x the
            # minor page faults and about 40% longer, with the same outputs.
            step = _Step(params_list, cache, entries, mining, senior)
            if not step.pool.any():
                continue  # one landmark: no anchor has an in-batch negative
            positive, negatives, live, doublets = _draw(step, cfg, rng, senior is not None)
            hard = _hard_terms(step, step.cand_rows[positive], step.cand_rows[negatives],
                               live, ctx.class_index).mean()
            soft = 0.0
            if senior is not None:
                soft = _soft_terms(step, step.cand_rows[doublets], cfg.tau, cfg.lambda1).mean()
            total = losses.joint_gd_loss(hard, soft, cfg.lambda1)
            if not np.isfinite(total):
                raise losses.TrainingDiverged(
                    f"non-finite loss {total} at epoch {epoch} step {step_idx}")
            step.backward()
            for params, grads, state in zip(params_list, step.grads, states):
                enc.scale_grads(grads, 1.0 / len(step.anchors))
                enc.sgd_step(params, grads, state)
            log.append(f"{epoch} {step_idx} {hard:.6f} {soft:.6f} {total:.6f}")
    return log


def train_senior(split: DatasetSplit, cfg: RunConfig, mining: bool = True,
                 shared_branches: bool = False):
    """Step I. Returns (ground_params, drone_params, log_lines).

    The miner picks every step's triplets in drone space from the first
    epoch on, at the constant rates ``lr_head`` and ``lr_body``.
    ``mining=False`` trains the same two-branch architecture with a random
    positive and random negatives instead of mined ones (the plain
    baseline); ``shared_branches=True`` makes both branches one parameter
    set (the one-common-model baseline).
    """
    ctx = build_context(split)
    ground_params, drone_params = _init_pair(ctx, cfg, "peerlearn.init.senior")
    if shared_branches:
        drone_params = ground_params
    rng = substream(cfg.seed, "peerlearn.senior")
    log = _train_pair(ctx, cfg, ground_params, drone_params, rng, cfg.epochs_senior, 1.0,
                      mining)
    return ground_params, drone_params, log


def train_junior(split: DatasetSplit, senior: tuple[enc.EncoderParams, enc.EncoderParams],
                 cfg: RunConfig):
    """Step II, one round: the junior starts from copies of the read-only
    senior pair and trains at Step I's rates times ``junior_lr_scale``. A
    senior whose two branches are one parameter set gives a junior whose
    branches are one too. Returns (ground, drone, log)."""
    ctx = build_context(split)
    senior_ground, senior_drone = senior
    ground_params = senior_ground.copy()
    drone_params = ground_params if senior_ground is senior_drone else senior_drone.copy()
    log = _train_pair(ctx, cfg, ground_params, drone_params,
                      substream(cfg.seed, "peerlearn.junior"), cfg.epochs_junior,
                      cfg.junior_lr_scale, mining=True, senior=(senior_ground, senior_drone))
    return ground_params, drone_params, log
