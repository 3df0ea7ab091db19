"""Self-check harnesses: finite-difference gradient suite and the
iterative-vs-closed-form agreement oracle for the random walk."""

from __future__ import annotations

import numpy as np

from . import losses
from .diffusion import diffuse_closed_form, diffuse_iterative
from .encoder import check_gradients
from .seeds import substream


def _loss_cases(rng: np.random.Generator, dim: int = 5):
    """(name, loss_fn, params) triples covering every training objective.

    Each loss_fn matches the check_gradients contract; discrete choices
    (semi-hard picks, hinge activity) are measure-zero kink sets that random
    inputs avoid.
    """
    n_neg, n_classes, n_entries, n_img, m = 3, 4, 6, 2, 3
    cases = []

    anchor = rng.standard_normal(dim)
    positive = rng.standard_normal(dim)
    negatives = [rng.standard_normal(dim) for _ in range(n_neg)]

    def consistency_fn(params):
        a, p, *negs = params
        value, grads = losses.consistency_loss(a, p, negs)
        return value, [grads["anchor"], grads["positive"], *grads["negatives"]]

    cases.append(("consistency", consistency_fn,
                  [anchor.copy(), positive.copy(), *[n.copy() for n in negatives]]))

    target = np.zeros(n_classes)
    target[int(rng.integers(n_classes))] = 1.0
    logits = rng.standard_normal(n_classes)

    def ce_fn(params):
        value, grad = losses.cross_entropy(params[0], target)
        return value, [grad]

    cases.append(("cross-entropy", ce_fn, [logits.copy()]))

    def hard_fn(params):
        a, p, *rest = params
        negs, lg = rest[:-1], rest[-1]
        value, grads = losses.hard_loss(a, p, negs, lg, target)
        return value, [grads["anchor"], grads["positive"], *grads["negatives"],
                       grads["logits"]]

    cases.append(("hard", hard_fn,
                  [anchor.copy(), positive.copy(),
                   *[n.copy() for n in negatives], logits.copy()]))

    senior_anchor = rng.standard_normal(dim)
    senior_entries = rng.standard_normal((n_entries, dim))
    junior_anchor = rng.standard_normal(dim)
    junior_entries = rng.standard_normal((n_entries, dim))
    senior_vec = _vec_from_rows(senior_anchor, senior_entries, tau=0.1)

    def soft_fn(params):
        a, entries = params
        junior_vec = _vec_from_rows(a, entries, tau=1.0)
        value, g_dots = losses.soft_loss(senior_vec, junior_vec)
        g_anchor, g_entries = losses.similarity_input_grads(junior_vec, g_dots)
        return value, [g_anchor, g_entries]

    cases.append(("similarity-soft", soft_fn,
                  [junior_anchor.copy(), junior_entries.copy()]))

    lambda1 = 1.0

    def joint_gd_fn(params):
        a, p, *rest = params
        negs, lg, entries = rest[:-2], rest[-2], rest[-1]
        hard_value, hard_grads = losses.hard_loss(a, p, negs, lg, target)
        junior_vec = _vec_from_rows(a, entries, tau=1.0)
        soft_value, g_dots = losses.soft_loss(senior_vec, junior_vec)
        g_anchor_soft, g_entries = losses.similarity_input_grads(junior_vec, g_dots)
        value = losses.joint_gd_loss(hard_value, soft_value, lambda1)
        return value, [hard_grads["anchor"] + lambda1 * g_anchor_soft,
                       hard_grads["positive"], *hard_grads["negatives"],
                       hard_grads["logits"], lambda1 * g_entries]

    cases.append(("joint-ground-drone", joint_gd_fn,
                  [anchor.copy(), positive.copy(),
                   *[n.copy() for n in negatives], logits.copy(),
                   junior_entries.copy()]))

    teacher = [rng.standard_normal((m, dim)) for _ in range(n_img)]
    student = [rng.standard_normal((m, dim)) for _ in range(n_img)]

    def patch_fn(params):
        value, grads = losses.patch_mse_loss(teacher, list(params))
        return value, grads

    cases.append(("patch-mse", patch_fn, [s.copy() for s in student]))

    n_a, n_pool = 2, 3
    t_anchors = [rng.standard_normal(dim) for _ in range(n_a)]
    t_pos = [rng.standard_normal(dim) for _ in range(n_a)]
    t_pool = [rng.standard_normal(dim) for _ in range(n_pool)]
    margin = 0.4

    def triplet_fn(params):
        anchors = params[:n_a]
        pos = params[n_a : 2 * n_a]
        pool = params[2 * n_a :]
        value, grads = losses.semi_hard_triplet_loss(anchors, pos, pool, margin)
        return value, [*grads["anchors"], *grads["positives"], *grads["pool"]]

    cases.append(("semi-hard-triplet", triplet_fn,
                  [*[a.copy() for a in t_anchors], *[p.copy() for p in t_pos],
                   *[n.copy() for n in t_pool]]))

    lambda2 = 1.0

    def joint_sd_fn(params):
        anchors = params[:n_a]
        pos = params[n_a : 2 * n_a]
        pool = params[2 * n_a : 2 * n_a + n_pool]
        student_p = params[2 * n_a + n_pool :]
        t_value, t_grads = losses.semi_hard_triplet_loss(anchors, pos, pool, margin)
        p_value, p_grads = losses.patch_mse_loss(teacher, list(student_p))
        value = losses.joint_sd_loss(t_value, p_value, lambda2)
        return value, [*t_grads["anchors"], *t_grads["positives"], *t_grads["pool"],
                       *[lambda2 * g for g in p_grads]]

    cases.append(("joint-satellite-drone", joint_sd_fn,
                  [*[a.copy() for a in t_anchors], *[p.copy() for p in t_pos],
                   *[n.copy() for n in t_pool], *[s.copy() for s in student]]))

    return cases


def _vec_from_rows(anchor, entries, tau):
    positives = [losses.DoubletEntry(whole=entries[0], patches=list(entries[1:]))]
    return losses.similarity_softmax(anchor, positives, tau)


LOSS_NAMES = [name for name, _, _ in _loss_cases(substream(0, "checks.names"))]


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
    between the iterative and solver paths, and between a multi-column call
    of each path and its per-column calls (three seed columns per graph)."""
    columns = 3
    worst = 0.0
    for trial in range(num_graphs):
        rng = substream(seed, f"checks.diffusion.{trial}")
        n = int(rng.integers(2, max_n + 1))
        alpha = float(alphas[trial % len(alphas)])
        matrix = random_stochastic_matrix(n, rng)
        f0 = np.stack([_seed_vector(n, rng) for _ in range(columns)], axis=1)
        tol = 1e-13 * float(f0.max())
        iterative = diffuse_iterative(matrix, f0, alpha, max_iters=100000, tol=tol).state
        closed = diffuse_closed_form(matrix, f0, alpha, cap=max_n)
        per_column_iterative = np.stack(
            [diffuse_iterative(matrix, f0[:, j], alpha, max_iters=100000, tol=tol).state
             for j in range(columns)], axis=1)
        per_column_closed = np.stack(
            [diffuse_closed_form(matrix, f0[:, j], alpha, cap=max_n)
             for j in range(columns)], axis=1)
        unit = [x / x.sum(axis=0) for x in (iterative, closed, per_column_iterative,
                                             per_column_closed)]
        for a, b in ((0, 1), (0, 2), (1, 3)):
            worst = max(worst, float(np.max(np.abs(unit[a] - unit[b]))))
    return worst
