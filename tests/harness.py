"""Self-check harness: finite-difference gradient suite (every loss wrt
its inputs, plus the region path and whole training steps wrt encoder
parameters) and the iterative-vs-closed-form agreement oracle for the
random walk. Acceptance criteria 1 and 2 run it; ``test_checks.py`` tests
it."""

import numpy as np

from plcd import losses, rmac
from plcd.config import RunConfig
from plcd.dataspace import DRONE, GROUND, SATELLITE, DatasetSplit, ImageRecord
from plcd.diffusion import _walk_budget, apply_operator, closed_form_operator, diffuse_iterative
from plcd.encoder import PARAM_NAMES, EncoderParams, init_params, new_grads
from plcd.patchmodel import _shared_step
from plcd.peerlearn import _hard_terms, _pad, _soft_terms, _Step, build_context
from plcd.rmac import PooledCache, aggregate_backward, aggregate_feature, region_embed
from plcd.seeds import substream


def check_gradients(loss_fn, params: list[np.ndarray], epsilon: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn(params) -> (value, grads)`` where ``grads`` mirrors ``params``.
    The error at each coordinate is |analytic - numeric| / max(1, |analytic|).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive (got {epsilon})")
    value, grads = loss_fn(params)
    if not np.isfinite(value):
        raise ValueError(f"loss is not finite at the given parameters (got {value})")
    worst = 0.0
    for arr, g in zip(params, grads):
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + epsilon
            up, _ = loss_fn(params)
            arr[idx] = keep - epsilon
            down, _ = loss_fn(params)
            arr[idx] = keep
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError("loss is not finite near the given parameters")
            numeric = (up - down) / (2.0 * epsilon)
            worst = max(worst, abs(numeric - g[idx]) / max(1.0, abs(g[idx])))
    return worst


def _loss_cases(rng: np.random.Generator, dim: int = 5):
    """(name, loss_fn, params) triples covering every training objective.

    Each loss_fn matches the check_gradients contract, with the value the
    sum of the objective's per-row values over a small stack of rows (the
    consistency stack holds fewer live negatives in its last row); discrete
    choices (semi-hard picks, hinge activity) are measure-zero kink sets
    that random inputs avoid.
    """
    n, n_neg, n_classes, n_entries, n_img, m = 2, 3, 4, 6, 2, 3
    cases = []

    anchors = rng.standard_normal((n, dim))
    positives = rng.standard_normal((n, dim))
    negatives = rng.standard_normal((n, n_neg, dim))
    live = np.arange(n_neg) < np.array([n_neg, n_neg - 1])[:, None]

    def consistency_fn(params):
        values, grads = losses.consistency_loss(*params, live)
        return values.sum(), [grads["anchors"], grads["positives"], grads["negatives"]]

    cases.append(("consistency", consistency_fn,
                  [anchors.copy(), positives.copy(), negatives.copy()]))

    labels = rng.integers(n_classes, size=n)
    logits = rng.standard_normal((n, n_classes))

    def ce_fn(params):
        values, grad = losses.cross_entropy(params[0], labels)
        return values.sum(), [grad]

    cases.append(("cross-entropy", ce_fn, [logits.copy()]))

    def hard(a, p, negs, lg):
        cons, grads = losses.consistency_loss(a, p, negs, live)
        ce, g_logits = losses.cross_entropy(lg, labels)
        return (cons + ce).sum(), [grads["anchors"], grads["positives"],
                                   grads["negatives"], g_logits]

    cases.append(("hard", lambda params: hard(*params),
                  [anchors.copy(), positives.copy(), negatives.copy(), logits.copy()]))

    senior = losses.similarity_log_probs(rng.standard_normal((n, dim)),
                                         rng.standard_normal((n, n_entries, dim)), tau=0.1)
    junior_anchors = rng.standard_normal((n, dim))
    junior_entries = rng.standard_normal((n, n_entries, dim))

    def soft(a, entries):
        values, g_dots = losses.soft_loss(
            senior, losses.similarity_log_probs(a, entries, tau=1.0))
        return values.sum(), [np.einsum("nk,nkd->nd", g_dots, entries),
                              g_dots[:, :, None] * a[:, None, :]]

    cases.append(("similarity-soft", lambda params: soft(*params),
                  [junior_anchors.copy(), junior_entries.copy()]))

    lambda1 = 1.0

    def joint_gd_fn(params):
        a, p, negs, lg, entries = params
        hard_value, hard_grads = hard(a, p, negs, lg)
        soft_value, (g_anchors_soft, g_entries) = soft(a, entries)
        value = losses.joint_gd_loss(hard_value, soft_value, lambda1)
        return value, [hard_grads[0] + lambda1 * g_anchors_soft, *hard_grads[1:],
                       lambda1 * g_entries]

    cases.append(("joint-ground-drone", joint_gd_fn,
                  [anchors.copy(), positives.copy(), negatives.copy(), logits.copy(),
                   junior_entries.copy()]))

    teacher = rng.standard_normal((n_img, m, dim))
    student = rng.standard_normal((n_img, m, dim))

    def patch_fn(params):
        values, grad = losses.patch_mse_loss(teacher, params[0])
        return values.sum(), [grad]

    cases.append(("patch-mse", patch_fn, [student.copy()]))

    t_anchors = rng.standard_normal((3, dim))
    t_gallery = rng.standard_normal((4, dim))
    positive_idx = np.array([0, 2, 0])
    margin = 0.4

    def triplet(a, gallery):
        values, grads = losses.semi_hard_triplet_loss(a, positive_idx, gallery, margin)
        return values.sum(), [grads["anchors"], grads["gallery"]]

    cases.append(("semi-hard-triplet", lambda params: triplet(*params),
                  [t_anchors.copy(), t_gallery.copy()]))

    lambda2 = 1.0

    def joint_sd_fn(params):
        a, gallery, student_p = params
        t_value, t_grads = triplet(a, gallery)
        p_values, p_grad = losses.patch_mse_loss(teacher, student_p)
        value = losses.joint_sd_loss(t_value, p_values.sum(), lambda2)
        return value, [*t_grads, lambda2 * p_grad]

    cases.append(("joint-satellite-drone", joint_sd_fn,
                  [t_anchors.copy(), t_gallery.copy(), student.copy()]))

    cases += _region_cases(rng)
    cases += _step_cases(rng)
    return cases


def _region_cases(rng: np.random.Generator):
    """Parameter-level cases: ``weight`` and ``bias`` of a tiny tanh encoder
    through the batched region path, as the trainers chain it."""
    map_shape, n, dim = (2, 3, 3), 3, 4
    grid = rmac.region_grid(3, (1, 2))
    cache = PooledCache(grid, map_shape)
    pooled = rng.standard_normal((n, len(grid) + 1, map_shape[0]))
    rows = np.ascontiguousarray((pooled - pooled.mean(axis=-1, keepdims=True)).transpose(1, 0, 2))
    params = init_params("drone", dim, int(np.prod(map_shape)), 2, rng, tanh=True)
    params.bias[:] = 0.5 * rng.standard_normal(dim)
    target = rng.standard_normal((n, dim))
    teacher = rng.standard_normal((n, len(grid), dim))

    def with_params(arrays):
        p = params.copy()
        p.weight, p.bias = arrays
        return p, new_grads(p)

    def aggregate_fn(arrays):
        # region_embed -> per-row L2 normalization -> region mean
        p, grads = with_params(arrays)
        descs = region_embed(p, cache.blocks(p), rows)
        feats, norms = aggregate_feature(descs)
        diff, g_descs = feats - target, np.zeros_like(descs)
        aggregate_backward(descs, norms, 2.0 * diff, g_descs)
        cache.backward(p, rows, descs, g_descs, grads)
        return float(np.sum(diff * diff)), [grads.weight, grads.bias]

    def patch_fn(arrays):
        p, grads = with_params(arrays)
        descs = region_embed(p, cache.blocks(p), rows)
        values, g_patches = losses.patch_mse_loss(teacher, descs[:, 1:])
        g_descs = np.zeros_like(descs)
        g_descs[:, 1:] = g_patches
        cache.backward(p, rows, descs, g_descs, grads)
        return values.sum(), [grads.weight, grads.bias]

    return [(name, fn, [params.weight.copy(), params.bias.copy()])
            for name, fn in (("region-aggregate-params", aggregate_fn),
                             ("region-patch-params", patch_fn))]


def _step_cases(rng: np.random.Generator):
    """Whole training steps on a tiny tanh config, as functions of every
    parameter array they train: one peer step (three anchors, two of them
    sharing their drones, each with its hard objectives and the junior's
    soft objective against a frozen senior)
    of both branches, and one satellite-drone ``_shared_step`` of the shared
    encoder. Mining is a discrete choice, so the mined triplets are fixed."""
    map_shape, dim, classes = (2, 3, 3), 3, 2
    input_dim = int(np.prod(map_shape))
    grid = rmac.region_grid(3, (1, 2))
    cache = PooledCache(grid, map_shape)

    def record(rid, view, landmark, section=0):
        return ImageRecord(rid, view, landmark, section, rng.standard_normal(map_shape))

    def encoder(role):
        p = init_params(role, dim, input_dim, classes, rng, tanh=True)
        p.bias[:] = 0.5 * rng.standard_normal(dim)
        p.classifier_bias[:] = 0.5 * rng.standard_normal(classes)
        return p

    def with_arrays(template, arrays):
        return EncoderParams(template.role, *arrays, tanh=template.tanh)

    def flat(params_list):
        return [getattr(p, name).copy() for p in params_list for name in PARAM_NAMES]

    drones = {lm: [record(10 * lm + sec, DRONE, lm, sec) for sec in (1, 2)]
              for lm in (1, 2)}
    # two anchors of landmark 1 share its drones, so the other anchor's
    # negative pool holds each of them twice
    entries = [(record(10 * lm + k, GROUND, lm), drones[lm])
               for lm, k in ((1, 0), (1, 5), (2, 0))]
    anchors = [anchor for anchor, _ in entries]
    class_index = build_context(DatasetSplit(
        train=anchors + drones[1] + drones[2], test=[])).class_index
    ground, drone = encoder("ground"), encoder("drone")
    senior_ground, senior_drone = encoder("ground"), encoder("drone")
    senior = (senior_ground, senior_drone, cache.blocks(senior_drone))

    def peer_fn(arrays):
        params_list = [with_arrays(ground, arrays[:4]), with_arrays(drone, arrays[4:])]
        step = _Step(params_list, cache, entries, True, senior)
        # each anchor's first positive and its whole negative pool
        negatives, live = _pad([np.flatnonzero(pool) for pool in step.pool])
        rows = step.cand_rows[step.positive.nonzero()[1].reshape(len(anchors), -1)]
        value = (_hard_terms(step, rows[:, 0], step.cand_rows[negatives], live,
                             class_index).sum()
                 + _soft_terms(step, rows, 0.1, 1.0).sum())
        step.backward()
        return value, [getattr(g, name) for g in step.grads for name in PARAM_NAMES]

    chunk = [1, 2, 3]
    drone_recs = [record(10 * lm + sec, DRONE, lm, sec) for lm in chunk for sec in (1, 2)]
    sat_recs = [record(10 * lm + 9, SATELLITE, lm) for lm in chunk]
    shared, teacher = encoder("satdrone"), encoder("drone")
    frozen = (teacher, cache.blocks(teacher))
    patch_cfg = RunConfig(margin=0.5, lambda2=1.0)

    def shared_fn(arrays):
        params = with_arrays(shared, arrays)
        grads = new_grads(params)
        triplet, patch = _shared_step(params, frozen, drone_recs, sat_recs, cache,
                                      patch_cfg, grads)
        return triplet + patch, [getattr(grads, name) for name in PARAM_NAMES]

    return [("peer-step-params", peer_fn, flat([ground, drone])),
            ("shared-step-params", shared_fn, flat([shared]))]


def gradient_suite(num_seeds: int = 20, seed: int = 0,
                   epsilon: float = 1e-6) -> dict[str, float]:
    """Worst relative FD error per loss across ``num_seeds`` random inputs."""
    worst: dict[str, float] = {}
    for trial in range(num_seeds):
        rng = substream(seed, f"checks.gradients.{trial}")
        for name, loss_fn, params in _loss_cases(rng):
            err = check_gradients(loss_fn, params, epsilon)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst


def random_stochastic_matrix(n: int, rng: np.random.Generator,
                             family: str | None = None) -> np.ndarray:
    """Random column-stochastic matrix with zero diagonal.

    Draws mix three families: dense (mixes in a few steps), sparse random
    (expander-like), and ring-structured (genuinely slow mixing), so the
    iterative/solver agreement is stressed across relaxation regimes.
    """
    if family is None:
        family = ("dense", "sparse", "ring")[int(rng.integers(3))]
    m = np.zeros((n, n))
    if family == "ring" and n > 4:
        for j in range(n):
            for step in (1, 2):
                m[(j + step) % n, j] = rng.uniform(0.2, 1.0)
                m[(j - step) % n, j] = rng.uniform(0.2, 1.0)
    elif family == "sparse" and n > 3:
        k = int(rng.integers(2, min(6, n)))
        for j in range(n):
            rows = rng.choice([i for i in range(n) if i != j], size=k, replace=False)
            m[rows, j] = rng.uniform(0.2, 1.0, size=k)
    else:
        m = rng.uniform(0.05, 1.0, size=(n, n))
        np.fill_diagonal(m, 0.0)
    return m / m.sum(axis=0)


def _seed_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    f0 = rng.uniform(0.0, 1.0, size=n)
    f0[rng.random(n) < 0.5] = 0.0
    if not f0.any():
        f0[int(rng.integers(n))] = 1.0
    return f0


def diffusion_oracle(num_graphs: int = 100, max_n: int = 200,
                     alphas=(0.5, 0.9, 0.99), seed: int = 0) -> float:
    """Max sup-norm gap, after every state column is normalized to unit sum,
    between the iterative walk and the closed-form operator over all rows,
    and between a multi-column call of each path and its per-column calls
    (three seed columns per graph). Each walk runs within the budget
    ``diffusion.query`` derives; a column left unconverged makes the gap
    infinite."""
    columns = 3
    worst = 0.0
    for trial in range(num_graphs):
        rng = substream(seed, f"checks.diffusion.{trial}")
        n = int(rng.integers(2, max_n + 1))
        alpha = float(alphas[trial % len(alphas)])
        matrix = random_stochastic_matrix(n, rng)
        f0 = np.stack([_seed_vector(n, rng) for _ in range(columns)], axis=1)
        tol = 1e-13 * float(f0.max())
        walks = [diffuse_iterative(matrix, f, alpha, _walk_budget(f, alpha, tol), tol)
                 for f in (f0, *f0.T)]
        if not all(walk.converged for walk in walks):
            return float("inf")
        iterative = walks[0].state
        operator = closed_form_operator(matrix, range(n), alpha, cap=max_n)
        closed = apply_operator(operator, f0)
        per_column_iterative = np.stack([walk.state for walk in walks[1:]], axis=1)
        per_column_closed = np.concatenate(
            [apply_operator(operator, f0[:, [j]]) for j in range(columns)], axis=1)
        unit = [x / x.sum(axis=0) for x in (iterative, closed, per_column_iterative,
                                             per_column_closed)]
        for a, b in ((0, 1), (0, 2), (1, 3)):
            worst = max(worst, float(np.max(np.abs(unit[a] - unit[b]))))
    return worst
