"""Training objectives as pure value-and-gradient functions on stacked rows.

Each function takes a training step's rows as arrays, one row per anchor
(or image), and returns the per-row loss values together with analytic
gradients of their sum with respect to its direct inputs (embeddings,
logits or scores); trainers scale those by their own averaging and chain
them into parameter gradients. Softmax-style terms are computed through a
row-wise log-sum-exp so large squared distances or sharp temperatures
cannot overflow.
"""

from __future__ import annotations

import numpy as np


class TrainingDiverged(RuntimeError):
    """A trainer's step loss is not finite."""


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis; every row needs one finite entry."""
    m = np.max(x, axis=-1, keepdims=True)
    return m[..., 0] + np.log(np.sum(np.exp(x - m), axis=-1))


def _row_squared_distances(a: np.ndarray, b: np.ndarray):
    """(squared distances over the last axis, differences a - b)."""
    diffs = a - b
    return np.einsum("...d,...d->...", diffs, diffs), diffs


def scatter_add(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, index, values)`` with the same bits: repeated
    indices add one layer of distinct indices at a time, in input order,
    each layer with one fancy ``+=``."""
    index = np.asarray(index).ravel()
    values = values.reshape(index.shape + target.shape[1:])
    order, ranks = np.argsort(index, kind="stable"), np.arange(len(index))
    starts = np.where(np.diff(index[order], prepend=-1) != 0, ranks, 0)
    depth = np.empty_like(ranks)  # earlier entries with the same index
    depth[order] = ranks - np.maximum.accumulate(starts)
    for layer in range(depth.max(initial=-1) + 1):
        pick = depth == layer
        target[index[pick]] += values[pick]


# ---------------------------------------------------------------------------
# ground-drone consistency + classification
# ---------------------------------------------------------------------------

def consistency_loss(anchors: np.ndarray, positives: np.ndarray,
                     negatives: np.ndarray, live: np.ndarray):
    """Negative log-probability of each positive under exp(-squared distance).

    value_i = -log[ exp(-|a_i-p_i|^2) / (exp(-|a_i-p_i|^2)
                                         + sum_j live_ij exp(-|a_i-n_ij|^2)) ]

    ``anchors`` and ``positives`` are (n, d), ``negatives`` (n, N, d) and
    ``live`` an (n, N) mask: anchors may hold fewer than N negatives, and
    entries off the mask score -inf. Returns (values (n,), grads) with grads
    keys ``anchors``, ``positives`` and ``negatives`` (zero off the mask).
    """
    if negatives.shape[1] < 1 or not np.all(live.any(axis=1)):
        raise ValueError("consistency_loss needs at least one negative per anchor")
    d_pos, diffs_pos = _row_squared_distances(anchors, positives)
    d_neg, diffs_neg = _row_squared_distances(anchors[:, None, :], negatives)
    scores = np.concatenate([-d_pos[:, None], np.where(live, -d_neg, -np.inf)], axis=1)
    lse = _logsumexp(scores)
    sigma = np.exp(scores - lse[:, None])  # exactly 0 off the mask

    g_positives = 2.0 * (sigma[:, :1] - 1.0) * diffs_pos
    g_negatives = 2.0 * sigma[:, 1:, None] * diffs_neg
    g_anchors = -g_positives - g_negatives.sum(axis=1)
    return lse - scores[:, 0], {"anchors": g_anchors, "positives": g_positives,
                                "negatives": g_negatives}


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy of (n, classes) logits against integer labels (n,).

    Returns (values (n,), grad wrt logits = softmax(logits) - one_hot(labels)).
    """
    if not np.all(np.isfinite(logits)):
        raise ValueError("cross_entropy got non-finite logits")
    rows = np.arange(len(logits))
    lse = _logsumexp(logits)
    grad = np.exp(logits - lse[:, None])
    grad[rows, labels] -= 1.0
    return lse - logits[rows, labels], grad


# ---------------------------------------------------------------------------
# doublet similarity distributions and distillation
# ---------------------------------------------------------------------------

def similarity_log_probs(anchors: np.ndarray, entries: np.ndarray,
                         tau: float) -> np.ndarray:
    """(n, K) row-wise log-softmax of anchor-entry dot products over ``tau``.

    ``anchors`` is (n, d) and ``entries`` (n, K, d): row i holds, for each
    positive image of anchor i, its whole descriptor then its region
    descriptors.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive (got {tau})")
    if entries.shape[1] < 1:
        raise ValueError("similarity_log_probs needs at least one entry per anchor")
    scaled = np.einsum("nkd,nd->nk", entries, anchors) / tau
    return scaled - _logsumexp(scaled)[:, None]


def soft_loss(senior: np.ndarray, junior: np.ndarray):
    """Cross-entropy from the (frozen) senior distributions to the junior ones.

    Both are (n, K) log-probabilities from ``similarity_log_probs``. Returns
    (values (n,), grad wrt the junior's scaled dot products); with the junior
    at temperature 1 that is the gradient wrt its raw dot products, exactly
    junior probs - senior probs.
    """
    if senior.shape != junior.shape:
        raise ValueError(
            f"similarity distributions disagree in length ({senior.shape} vs {junior.shape})")
    senior_probs = np.exp(senior)
    return -np.sum(senior_probs * junior, axis=1), np.exp(junior) - senior_probs


def joint_gd_loss(hard_value: float, soft_value: float, lambda1: float) -> float:
    if lambda1 < 0:
        raise ValueError(f"lambda1 must be >= 0 (got {lambda1})")
    return hard_value + lambda1 * soft_value


# ---------------------------------------------------------------------------
# satellite-drone objectives
# ---------------------------------------------------------------------------

def patch_mse_loss(teacher: np.ndarray, student: np.ndarray):
    """Region-descriptor alignment between a frozen teacher and a student.

    ``teacher`` and ``student`` are (n, m, dim) region descriptors. Per image
    the per-region mean squared errors are summed and divided by m.
    Returns (values (n,), grad wrt ``student``); the teacher gets none.
    """
    if teacher.shape != student.shape:
        raise ValueError(f"patch shape mismatch: {teacher.shape} vs {student.shape}")
    m, dim = student.shape[1:]
    diff = student - teacher
    return np.sum(diff * diff, axis=(1, 2)) / dim / m, 2.0 * diff / dim / m


def semi_hard_triplet_loss(anchors: np.ndarray, positive_idx: np.ndarray,
                           gallery: np.ndarray, margin: float):
    """Hinge over squared distances with per-anchor semi-hard negatives.

    Anchor i's positive is ``gallery[positive_idx[i]]`` and every other
    gallery row is a candidate negative. The negative is the closest
    candidate farther than the positive; if none exists, the hardest
    (closest) candidate is used. Ties break on the lowest gallery index.

    Returns (values (n,), grads) with grads keys ``anchors`` (n, d) and
    ``gallery`` (g, d); gallery gradients accumulate over anchors.
    """
    if margin <= 0:
        raise ValueError(f"margin must be positive (got {margin})")
    if len(gallery) < 2:
        raise ValueError("semi_hard_triplet_loss needs a non-empty negative pool")
    if len(anchors) != len(positive_idx):
        raise ValueError("anchors and positives must align")
    rows = np.arange(len(anchors))
    dists, diffs = _row_squared_distances(anchors[:, None, :], gallery[None])
    d_pos = dists[rows, positive_idx]
    pool = np.ones_like(dists, dtype=bool)
    pool[rows, positive_idx] = False
    semi = pool & (dists > d_pos[:, None])
    pick_from = np.where(semi.any(axis=1)[:, None], semi, pool)
    pick = np.argmin(np.where(pick_from, dists, np.inf), axis=1)  # lowest index on a tie
    hinge = d_pos - dists[rows, pick] + margin
    active = (hinge > 0)[:, None]

    p, n = gallery[positive_idx], gallery[pick]
    g_gallery = np.zeros_like(gallery)
    scatter_add(g_gallery, positive_idx, np.where(active, -2.0 * diffs[rows, positive_idx], 0.0))
    scatter_add(g_gallery, pick, np.where(active, 2.0 * diffs[rows, pick], 0.0))
    return np.maximum(hinge, 0.0), {"anchors": np.where(active, 2.0 * (n - p), 0.0),
                                    "gallery": g_gallery}


def joint_sd_loss(triplet_value: float, patch_value: float, lambda2: float) -> float:
    if lambda2 < 0:
        raise ValueError(f"lambda2 must be >= 0 (got {lambda2})")
    return triplet_value + lambda2 * patch_value
