"""Two-step ground-drone training with a frozen senior guiding a junior.

Step I trains the senior pair on mined triplets: the easiest positive is the
top-1 drone by current cosine similarity from a batch holding one drone per
direction section, the negatives are the top-N most similar other-identity
drones. Step II freezes the senior and trains the junior on doublets: the
hard objective is kept, and the senior's sharp similarity distribution over
whole-image and region descriptors supervises the junior's distribution at
temperature 1.

Each optimization step is batched across its anchors (``_Step``): one
whole-image product embeds the ground anchors and one ``rmac`` region
product the batch's drones (the frozen senior's weight blocks built once per
run). The miner reads rows of those stacks per anchor; the hard and soft
losses then read all anchors' rows at once, one stacked call per objective
(``_hard_terms``, ``_soft_terms``), shared rows scatter-add with the bits of
``np.add.at``, and one backward per path ends the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import encoder as enc
from . import losses, rmac
from .dataspace import (GROUND, DatasetSplit, DroneIndex, ImageRecord, draw_per_section,
                        drones_by_section)
from .seeds import substream

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class MinedTriplet:
    positive: ImageRecord
    negatives: list[ImageRecord]


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


def mine_easy_triplet(anchor: ImageRecord, positive_batch: list[ImageRecord],
                      negative_batch: list[ImageRecord],
                      ground_params: enc.EncoderParams,
                      drone_params: enc.EncoderParams,
                      num_negatives: int, space: str = "drone",
                      feature_fn=None) -> MinedTriplet:
    """Pick the easiest positive and the top-N hardest negatives by cosine.

    ``space`` selects whose features rank the candidates: ``"drone"`` embeds
    the anchor with the drone branch too (one map, so raw-geometry survives
    any single projection and mining is informative before the branches have
    aligned); ``"ground"`` ranks across the two branches. ``feature_fn``
    turns (params, records) into an (n, dim) feature stack, by default
    ``enc.embed_records``; trainers pass the current step's rows. The
    positive batch must hold one drone per direction section of the anchor's
    landmark; negatives must come from other identities. Every candidate row
    is normalized and scored against the anchor by one row-wise ``einsum``,
    so byte-identical candidates score the same bits wherever they sit, and
    ties break on the lowest record id.
    """
    if not negative_batch:
        raise ValueError("mine_easy_triplet got an empty negative batch")
    if num_negatives > len(negative_batch):
        raise ValueError(
            f"asked for {num_negatives} negatives but the pool holds {len(negative_batch)}"
        )
    if space not in ("drone", "ground"):
        raise ValueError(f"space must be 'drone' or 'ground' (got {space!r})")
    sections = [r.section for r in positive_batch]
    if len(set(sections)) != len(sections):
        raise ValueError("positive batch must hold one record per section")
    if any(r.landmark != anchor.landmark for r in positive_batch):
        raise ValueError("positive batch must share the anchor's landmark")
    if any(r.landmark == anchor.landmark for r in negative_batch):
        raise ValueError("negatives must be identity-disjoint from the anchor")

    if feature_fn is None:
        feature_fn = enc.embed_records
    anchor_params = drone_params if space == "drone" else ground_params
    a = enc.unit_rows(feature_fn(anchor_params, [anchor]))[0]
    candidates = enc.unit_rows(feature_fn(drone_params, positive_batch + negative_batch))
    sims = -np.einsum("ij,j->i", candidates, a)
    ids = np.array([r.id for r in positive_batch + negative_batch])
    split = len(positive_batch)
    best = np.lexsort((ids[:split], sims[:split]))[0]
    order = np.lexsort((ids[split:], sims[split:]))[:num_negatives]
    return MinedTriplet(
        positive=positive_batch[best],
        negatives=[negative_batch[i] for i in order],
    )


class _Step:
    """One optimization step of a peer pair, batched across its anchors.

    Drone records go through the region path: each drone of the batch's
    positive batches (which also hold every negative) is embedded once with
    the current drone parameters, and with the frozen senior's in Step II;
    the anchors join that stack, ahead of the drones, only when drone-space
    mining reads them, and never for the senior, whose rows only the soft
    loss reads. The anchors go through the whole-image path in one product
    with the current ground parameters (and the frozen senior ground's).
    With shared branches the miner ranks every candidate by its whole-image
    embedding too, so then the drones join that product instead. ``senior``
    is (ground, drone, the drone's weight blocks, built once per run).

    The losses read these rows, back their logit gradients through the
    classifier heads, and add into one gradient array per path (``g_whole``,
    ``g_feats`` for image features, ``g_descs`` for region descriptors);
    ``backward`` chains those through one backward per path.
    """

    def __init__(self, params_list: list[enc.EncoderParams], cache: rmac.PooledCache,
                 entries, mining_space: str | None = None,
                 senior: tuple[enc.EncoderParams, enc.EncoderParams, np.ndarray] | None = None):
        self.mining_space = mining_space  # None: this step does not mine
        self.ground, self.drone = params_list[0], params_list[-1]
        self.grads = [enc.new_grads(p) for p in params_list]
        shared = self.ground is self.drone
        anchors = [anchor for anchor, _ in entries]
        drones = list({r.id: r for _, positives in entries for r in positives}.values())
        region = anchors + drones if mining_space == "drone" and not shared else drones
        whole = anchors + drones if mining_space and shared else anchors

        self.row = {r.id: i for i, r in enumerate(region)}
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

    def feature(self, params: enc.EncoderParams, records: list[ImageRecord]) -> np.ndarray:
        """Miner feature hook: ground params read the whole-image rows,
        anything else this step's region-aggregate rows."""
        if params is self.ground:
            return self.whole[[self.whole_row[r.id] for r in records]]
        return self.feats[self.rows(records)]

    def backward(self) -> None:
        enc.whole_backward(self.ground, self.x, self.whole, self.g_whole, self.grads[0])
        rmac.aggregate_backward(self.descs, self.norms, self.g_feats, self.g_descs)
        self.cache.backward(self.drone, self.pooled, self.descs, self.g_descs, self.grads[-1])


def _hard_terms(step: _Step, anchors: list[ImageRecord], mined: list[MinedTriplet],
                class_index: dict[int, int]) -> np.ndarray:
    """Consistency + per-branch cross-entropy for the step's anchors, one
    stacked call per objective; returns the per-anchor values.

    The ground anchors read their whole-image rows; drone records read the
    step's region-aggregate features, so the hard objective trains the
    region descriptors directly. Anchors can hold fewer negatives than
    others (a ``live`` mask pads them), two anchors can share a positive and
    a record can sit twice in a negative pool, so drone rows scatter-add.
    """
    i = np.array([step.whole_row[r.id] for r in anchors])
    p_rows = np.array(step.rows([m.positive for m in mined]))
    width = max(len(m.negatives) for m in mined)
    neg_rows = np.array([step.rows(m.negatives) + [0] * (width - len(m.negatives))
                         for m in mined])
    live = np.arange(width) < np.array([len(m.negatives) for m in mined])[:, None]
    a, p = step.whole[i], step.feats[p_rows]

    values, grads = losses.consistency_loss(a, p, step.feats[neg_rows], live)
    labels = np.array([class_index[r.landmark] for r in anchors])
    ce_a, g_logits_a = losses.cross_entropy(enc.logits_from_embedding(step.ground, a), labels)
    ce_p, g_logits_p = losses.cross_entropy(enc.logits_from_embedding(step.drone, p), labels)

    step.g_whole[i] += grads["anchors"] + enc.classifier_backward(
        step.ground, a, g_logits_a, step.grads[0])
    losses.scatter_add(step.g_feats, p_rows, grads["positives"] + enc.classifier_backward(
        step.drone, p, g_logits_p, step.grads[-1]))
    losses.scatter_add(step.g_feats, neg_rows[live], grads["negatives"][live])
    return values + ce_a + ce_p


def _soft_terms(step: _Step, anchors: list[ImageRecord],
                doublets: list[list[ImageRecord]], tau: float, lambda1: float) -> np.ndarray:
    """Distillation over whole+region descriptors for the step's doublets,
    one (anchors, P*k) similarity matrix per peer; returns the per-anchor
    values. Anchors of one landmark can share drones: their region rows
    scatter-add."""
    i = np.array([step.whole_row[r.id] for r in anchors])
    rows = np.array([step.rows(d) for d in doublets])  # (n, P)
    n, (per_image, dim) = len(anchors), step.descs.shape[1:]
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
        entries = [(anchor, draw_per_section(ctx.drones, ctx.sections, anchor.landmark, rng))
                   for anchor in chunk]
        yield entries


def _batch_negatives(entries, anchor) -> list[ImageRecord]:
    pool = []
    for other, positives in entries:
        if other.landmark != anchor.landmark:
            pool.extend(positives)
    return pool


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


def _train_pair(ctx, cfg, ground_params, drone_params, rng, epochs: int,
                rate_scale: float, anchor_step, mining_from: int | None,
                senior=None) -> list[str]:
    """The loop both training steps share. Per batch: one ``_Step``, which
    mines from epoch ``mining_from`` on (never when None);
    ``anchor_step(step, anchor, positives, negatives)`` per anchor, in batch
    order, mining or drawing its triplet and returning it with the doublet
    the soft loss reads (Step II only); one stacked call per objective; one
    step backward and one SGD step per parameter set. Returns the log
    lines."""
    cache = rmac.PooledCache(rmac.config_grid(cfg, ctx.map_shape), ctx.map_shape)
    if senior is not None:  # frozen, so its weight blocks serve every step
        senior = (*senior, cache.blocks(senior[1]))
    shared = drone_params is ground_params
    params_list = [ground_params] if shared else [ground_params, drone_params]
    states = [enc.new_sgd_state(p, cfg.lr_head * rate_scale, cfg.lr_body * rate_scale,
                                cfg.momentum, cfg.decay_epoch, cfg.decay_factor)
              for p in params_list]
    log: list[str] = []
    for epoch in range(epochs):
        for s in states:
            s.epoch = epoch
        mining_space = (cfg.mining_space if mining_from is not None
                        and epoch >= mining_from else None)
        for step_idx, entries in enumerate(_epoch_batches(ctx, cfg, rng)):
            step = _Step(params_list, cache, entries, mining_space, senior)
            anchors, drawn = [], []
            for anchor, positives in entries:
                negatives = _batch_negatives(entries, anchor)
                if negatives:
                    anchors.append(anchor)
                    drawn.append(anchor_step(step, anchor, positives, negatives))
            if not anchors:
                continue
            mined, doublets = zip(*drawn)
            hard = _hard_terms(step, anchors, mined, ctx.class_index).mean()
            soft = 0.0
            if senior is not None:
                soft = _soft_terms(step, anchors, doublets, cfg.tau, cfg.lambda1).mean()
            total = losses.joint_gd_loss(hard, soft, cfg.lambda1)
            if not np.isfinite(total):
                raise losses.TrainingDiverged(
                    f"non-finite loss {total} at epoch {epoch} step {step_idx}")
            step.backward()
            for params, grads, state in zip(params_list, step.grads, states):
                enc.scale_grads(grads, 1.0 / len(anchors))
                enc.sgd_step(params, grads, state)
            log.append(f"{epoch} {step_idx} {hard:.6f} {soft:.6f} {total:.6f}")
    return log


def train_senior(split: DatasetSplit, cfg: RunConfig, mining: bool = True,
                 shared_branches: bool = False):
    """Step I. Returns (ground_params, drone_params, log_lines).

    ``mining=False`` trains the same two-branch architecture with a random
    positive and random negatives instead of mined ones (the plain baseline);
    ``shared_branches=True`` makes both branches one parameter set (the
    one-common-model baseline). With mining on, the first ``warmup_epochs``
    epochs still use random positives: the branches start unaligned, and the
    miner should not trust cross-branch similarities before the consistency
    pull has given them structure.
    """
    ctx = build_context(split)
    ground_params, drone_params = _init_pair(ctx, cfg, "peerlearn.init.senior")
    if shared_branches:
        drone_params = ground_params
    rng = substream(cfg.seed, "peerlearn.senior")

    def anchor_step(step, anchor, positives, negatives):
        n_neg = min(cfg.num_negatives, len(negatives))
        if step.mining_space is not None:
            mined = mine_easy_triplet(anchor, positives, negatives,
                                      ground_params, drone_params, n_neg,
                                      space=step.mining_space,
                                      feature_fn=step.feature)
        else:
            pos = positives[int(rng.integers(len(positives)))]
            idx = rng.permutation(len(negatives))[:n_neg]
            mined = MinedTriplet(pos, [negatives[i] for i in idx])
        return mined, None

    log = _train_pair(ctx, cfg, ground_params, drone_params, rng,
                      cfg.epochs_senior, 1.0, anchor_step,
                      mining_from=cfg.warmup_epochs if mining else None)
    return ground_params, drone_params, log


def train_junior(split: DatasetSplit, senior: tuple[enc.EncoderParams, enc.EncoderParams],
                 cfg: RunConfig, shared_branches: bool = False,
                 round_tag: str = ""):
    """Step II. The senior pair is read-only; returns (ground, drone, log).

    ``round_tag`` names the RNG substream so repeated senior<-junior swap
    rounds draw fresh batches.
    """
    ctx = build_context(split)
    senior_ground, senior_drone = senior
    if cfg.junior_init == "senior":
        ground_params, drone_params = senior_ground.copy(), senior_drone.copy()
    else:
        ground_params, drone_params = _init_pair(ctx, cfg, "peerlearn.init.junior")
    if shared_branches:
        drone_params = ground_params
    rng = substream(cfg.seed, f"peerlearn.junior{round_tag}")

    def anchor_step(step, anchor, positives, negatives):
        n_neg = min(cfg.num_negatives, len(negatives))
        # Step II works the difficult positives: the senior only ever
        # trained on the easiest one, the junior draws across all
        # sections while keeping the mined hard negatives.
        mined = mine_easy_triplet(anchor, positives, negatives,
                                  ground_params, drone_params, n_neg,
                                  space=step.mining_space,
                                  feature_fn=step.feature)
        hard_positive = positives[int(rng.integers(len(positives)))]
        doublet = positives
        if cfg.num_positives and cfg.num_positives < len(positives):
            idx = sorted(rng.permutation(len(positives))[: cfg.num_positives])
            doublet = [positives[i] for i in idx]
        return MinedTriplet(hard_positive, mined.negatives), doublet

    # Step II refines an already-trained model: it continues at the schedule's
    # decayed rate rather than restarting at the step-I rate.
    log = _train_pair(ctx, cfg, ground_params, drone_params, rng, cfg.epochs_junior,
                      cfg.junior_lr_scale, anchor_step, mining_from=0,
                      senior=(senior_ground, senior_drone))
    return ground_params, drone_params, log
