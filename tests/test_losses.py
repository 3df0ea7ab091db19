import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plcd import losses
from plcd.seeds import substream

from harness import check_gradients


def _one(v):
    """A stack of one row."""
    return np.asarray(v, dtype=float)[None]


def _consistency(a, p, negs):
    """One anchor through the batched loss: value and grads of that row."""
    values, grads = losses.consistency_loss(_one(a), _one(p), _one(negs),
                                            np.ones((1, len(negs)), dtype=bool))
    return values[0], {k: g[0] for k, g in grads.items()}


def _similarity(anchor, entries, tau):
    return losses.similarity_log_probs(_one(anchor), _one(entries), tau)


def _triplet(anchors, positives, pool, margin):
    """Per-anchor triplets through the batched loss: each anchor's gallery is
    its positive (index 0) followed by the shared pool."""
    values, grads = [], []
    for a, p in zip(anchors, positives):
        value, g = losses.semi_hard_triplet_loss(_one(a), np.array([0]),
                                                 np.stack([p, *pool]), margin)
        values.append(value[0])
        grads.append(g["gallery"][1:])
    return float(np.mean(values)), np.sum(grads, axis=0)


# ---------------------------------------------------------------------------
# consistency loss
# ---------------------------------------------------------------------------

def test_consistency_uniform_distances_is_ln3():
    # equal squared distances, two negatives -> uniform softmax over 3 entries
    a = np.array([0.0, 0.0])
    p = np.array([1.0, 0.0])
    n1 = np.array([0.0, 1.0])
    n2 = np.array([-1.0, 0.0])
    value, _ = _consistency(a, p, [n1, n2])
    assert value == pytest.approx(math.log(3.0), abs=1e-12)


def test_consistency_hand_case():
    a = np.array([1.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([0.0, 1.0])
    value, _ = _consistency(a, p, [n])
    assert value == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-12)


def test_consistency_decreases_as_negative_moves_away():
    rng = substream(0, "loss.cons")
    a = rng.standard_normal(4)
    p = rng.standard_normal(4)
    n = rng.standard_normal(4)
    v0, _ = _consistency(a, p, [n])
    farther = a + 3.0 * (n - a)
    v1, _ = _consistency(a, p, [farther])
    assert v1 < v0


def test_consistency_nonnegative_and_overflow_safe():
    a = np.array([100.0, 0.0])
    p = np.array([-100.0, 0.0])
    n = np.array([100.0, 0.1])
    value, grads = _consistency(a, p, [n])
    assert np.isfinite(value) and value >= 0.0
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_consistency_requires_negative():
    with pytest.raises(ValueError, match="negative"):
        losses.consistency_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 0, 2)),
                                np.zeros((1, 0), dtype=bool))
    # every anchor needs a live one
    with pytest.raises(ValueError, match="negative"):
        losses.consistency_loss(np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 1, 2)),
                                np.array([[True], [False]]))


def reference_consistency(a, p, negatives):
    """The per-anchor consistency loss, one negative at a time."""
    diffs_pos = a - p
    diffs_neg = [a - n for n in negatives]
    scores = np.array([-float(diffs_pos @ diffs_pos)] + [-float(d @ d) for d in diffs_neg])
    m = float(np.max(scores))
    lse = m + float(np.log(np.sum(np.exp(scores - m))))
    sigma = np.exp(scores - lse)
    g_anchor = -2.0 * (sigma[0] - 1.0) * diffs_pos
    g_negatives = []
    for j, d in enumerate(diffs_neg):
        g_anchor += -2.0 * sigma[j + 1] * d
        g_negatives.append(2.0 * sigma[j + 1] * d)
    return lse - scores[0], g_anchor, 2.0 * (sigma[0] - 1.0) * diffs_pos, g_negatives


grid_values = st.integers(-3, 3).map(float)


@st.composite
def consistency_batch(draw):
    n, width, dim = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def rows(*shape):
        return np.array(draw(st.lists(grid_values, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    counts = np.array([draw(st.integers(1, width)) for _ in range(n)])
    return rows(n, dim), rows(n, dim), rows(n, width, dim), np.arange(width) < counts[:, None]


@settings(max_examples=200, deadline=None)
@given(consistency_batch())
def test_batched_consistency_matches_per_anchor_reference(batch):
    anchors, positives, negatives, live = batch
    values, grads = losses.consistency_loss(anchors, positives, negatives, live)
    for i in range(len(anchors)):
        value, g_a, g_p, g_n = reference_consistency(anchors[i], positives[i],
                                                     negatives[i][live[i]])
        assert values[i] == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert np.allclose(grads["anchors"][i], g_a, rtol=1e-12, atol=1e-12)
        assert np.allclose(grads["positives"][i], g_p, rtol=1e-12, atol=1e-12)
        assert np.allclose(grads["negatives"][i][live[i]], g_n, rtol=1e-12, atol=1e-12)
        assert not grads["negatives"][i][~live[i]].any()


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    for classes in (2, 5, 11):
        values, _ = losses.cross_entropy(np.zeros((3, classes)), np.array([0, 1, 0]))
        assert values == pytest.approx(math.log(classes), abs=1e-12)


def test_cross_entropy_two_class_hand_case():
    values, grad = losses.cross_entropy(np.zeros((2, 2)), np.array([0, 1]))
    assert values == pytest.approx(math.log(2.0), abs=1e-12)
    assert np.allclose(grad, [[-0.5, 0.5], [0.5, -0.5]])


def test_cross_entropy_vanishes_with_margin():
    last = None
    for margin in (5.0, 20.0, 60.0):
        values, _ = losses.cross_entropy(np.array([[margin, 0.0]]), np.array([0]))
        if last is not None:
            assert values[0] < last
        last = values[0]
    assert last < 1e-20


def test_cross_entropy_shift_invariance():
    rng = substream(1, "loss.ce")
    logits = rng.standard_normal((2, 6))
    labels = np.array([2, 5])
    v0, g0 = losses.cross_entropy(logits, labels)
    v1, g1 = losses.cross_entropy(logits + 13.7, labels)
    assert v0 == pytest.approx(v1, rel=1e-12)
    assert np.allclose(g0, g1)


def test_cross_entropy_rejects_non_finite_logits():
    with pytest.raises(ValueError, match="non-finite"):
        losses.cross_entropy(np.array([[0.0, np.nan]]), np.array([0]))


# ---------------------------------------------------------------------------
# hard loss: consistency plus cross-entropy
# ---------------------------------------------------------------------------

def test_hard_loss_is_exact_sum():
    # the rows of a stack score as they would alone
    rng = substream(2, "loss.hard")
    a, p = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    negs = rng.standard_normal((3, 2, 3))
    live = np.array([[True, True], [True, False], [True, True]])
    logits = rng.standard_normal((3, 4))
    labels = np.array([1, 0, 3])
    cons, _ = losses.consistency_loss(a, p, negs, live)
    ce, _ = losses.cross_entropy(logits, labels)
    for i in range(3):
        alone, _ = reference_consistency(a[i], p[i], negs[i][live[i]])[:2]
        ce_alone, _ = losses.cross_entropy(logits[i : i + 1], labels[i : i + 1])
        assert cons[i] + ce[i] == pytest.approx(alone + ce_alone[0], abs=1e-12)


def test_hard_loss_gradient_is_component_sum():
    rng = substream(3, "loss.hard2")
    a, p = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    negs = rng.standard_normal((2, 2, 3))
    live = np.array([[True, True], [False, True]])
    logits = rng.standard_normal((2, 4))
    labels = np.array([0, 2])

    def loss_fn(params):
        a_, p_, n_, lg = params
        cons, grads = losses.consistency_loss(a_, p_, n_, live)
        ce, g_logits = losses.cross_entropy(lg, labels)
        return float(np.sum(cons + ce)), [grads["anchors"], grads["positives"],
                                          grads["negatives"], g_logits]

    err = check_gradients(loss_fn, [a.copy(), p.copy(), negs.copy(), logits.copy()], 1e-6)
    assert err < 1e-6


# ---------------------------------------------------------------------------
# similarity softmax + distillation
# ---------------------------------------------------------------------------

def _entries(rng, m_positives, m_patches, dim):
    """Doublet rows: per positive image, its whole descriptor then its patches."""
    return rng.standard_normal((m_positives * (1 + m_patches), dim))


def test_similarity_uniform_when_dots_equal():
    anchor = np.zeros(3)  # all dots are 0
    log_probs = _similarity(anchor, _entries(substream(4, "loss.sim"), 2, 30, 3), 1.0)
    assert log_probs.shape == (1, 2 * 31)
    assert np.allclose(np.exp(log_probs), 1.0 / 62.0)


def test_similarity_probs_sum_to_one():
    rng = substream(5, "loss.sim2")
    anchors = rng.standard_normal((3, 4))
    probs = np.exp(losses.similarity_log_probs(anchors, rng.standard_normal((3, 18, 4)), 0.1))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)
    assert np.all(probs >= 0.0)


def test_smaller_tau_sharpens():
    rng = substream(6, "loss.sim3")
    anchor = rng.standard_normal(4)
    entries = _entries(rng, 2, 4, 4)
    hot = _similarity(anchor, entries, tau=0.1)
    mild = _similarity(anchor, entries, tau=1.0)
    assert float(hot.max()) > float(mild.max())


def test_similarity_entry_order():
    entries = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                        [4.0, 0.0], [5.0, 0.0], [6.0, 0.0]])
    log_probs = _similarity(np.array([1.0, 0.0]), entries, tau=1.0)[0]
    # log-probabilities are the dots up to one shift
    assert np.allclose(log_probs - log_probs[0], [0, 1, 2, 3, 4, 5])


def test_similarity_shift_invariance():
    rng = substream(7, "loss.sim4")
    anchor = rng.standard_normal(4)
    anchor /= np.linalg.norm(anchor)
    entries = _entries(rng, 2, 3, 4)
    v0 = _similarity(anchor, entries, tau=0.5)
    v1 = _similarity(anchor, entries + 0.9 * anchor, tau=0.5)
    assert np.allclose(v0, v1)


def test_similarity_rejects_bad_tau():
    with pytest.raises(ValueError, match="temperature"):
        _similarity(np.zeros(2), _entries(substream(8, "x"), 1, 1, 2), 0.0)


def test_soft_loss_one_hot_match_is_zero():
    rng = substream(9, "loss.soft")
    junior = _similarity(rng.standard_normal(3), _entries(rng, 1, 3, 3), tau=1.0)
    one_hot = np.eye(4)[int(np.argmax(junior))]
    value, _ = losses.soft_loss(np.log(one_hot + 1e-300)[None], junior)
    assert value[0] == pytest.approx(-float(np.max(junior)), abs=1e-12)


def test_soft_loss_uniform_senior_uniform_junior_is_lnK():
    anchor = np.zeros(3)
    entries = _entries(substream(10, "loss.soft2"), 2, 2, 3)
    senior = _similarity(anchor, entries, tau=0.1)
    junior = _similarity(anchor, entries, tau=1.0)
    value, _ = losses.soft_loss(senior, junior)
    assert value[0] == pytest.approx(math.log(6.0), abs=1e-12)


def test_soft_loss_gradient_is_prob_difference():
    rng = substream(11, "loss.soft3")
    anchors = rng.standard_normal((2, 3))
    entries = rng.standard_normal((2, 8, 3))
    senior = losses.similarity_log_probs(rng.standard_normal((2, 3)), entries, 0.1)
    junior = losses.similarity_log_probs(anchors, entries, 1.0)
    _, grad = losses.soft_loss(senior, junior)
    assert np.allclose(grad, np.exp(junior) - np.exp(senior))


def test_soft_loss_self_is_entropy():
    rng = substream(12, "loss.soft4")
    vec = _similarity(rng.standard_normal(3), _entries(rng, 2, 4, 3), tau=0.7)
    value, _ = losses.soft_loss(vec, vec)
    entropy = -float(np.sum(np.exp(vec) * vec))
    assert value[0] == pytest.approx(entropy, abs=1e-12)


def test_soft_loss_length_mismatch():
    rng = substream(13, "loss.soft5")
    a = _similarity(rng.standard_normal(2), _entries(rng, 1, 1, 2), 1.0)
    b = _similarity(rng.standard_normal(2), _entries(rng, 1, 2, 2), 1.0)
    with pytest.raises(ValueError, match="length"):
        losses.soft_loss(a, b)


# ---------------------------------------------------------------------------
# joint combiners
# ---------------------------------------------------------------------------

def test_joint_gd_loss_weighting():
    assert losses.joint_gd_loss(1.25, 0.5, 0.0) == pytest.approx(1.25)
    assert losses.joint_gd_loss(1.25, 0.5, 1.0) == pytest.approx(1.75)
    # linear in lambda1
    v0 = losses.joint_gd_loss(2.0, 3.0, 0.2)
    v1 = losses.joint_gd_loss(2.0, 3.0, 0.8)
    mid = losses.joint_gd_loss(2.0, 3.0, 0.5)
    assert mid == pytest.approx((v0 + v1) / 2.0)
    with pytest.raises(ValueError, match="lambda1"):
        losses.joint_gd_loss(1.0, 1.0, -0.1)


def test_joint_sd_loss_weighting():
    assert losses.joint_sd_loss(0.9, 0.4, 0.0) == pytest.approx(0.9)
    assert losses.joint_sd_loss(0.9, 0.4, 1.0) == pytest.approx(1.3)
    with pytest.raises(ValueError, match="lambda2"):
        losses.joint_sd_loss(1.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# patch MSE
# ---------------------------------------------------------------------------

def test_patch_mse_identical_is_zero():
    rng = substream(14, "loss.patch")
    patches = rng.standard_normal((2, 4, 3))
    values, grad = losses.patch_mse_loss(patches, patches.copy())
    assert not values.any()
    assert not grad.any()


def test_patch_mse_hand_case():
    values, _ = losses.patch_mse_loss(np.array([[[0.0, 0.0]]]), np.array([[[2.0, 0.0]]]))
    assert values[0] == pytest.approx(2.0)  # mean sq diff (4+0)/2, one patch, m=1


def test_patch_mse_quadratic_scaling():
    rng = substream(15, "loss.patch2")
    teacher = rng.standard_normal((2, 3, 4))
    student = teacher + rng.standard_normal((2, 3, 4))
    v1, _ = losses.patch_mse_loss(teacher, student)
    v2, _ = losses.patch_mse_loss(teacher, teacher + 2.0 * (student - teacher))
    assert v2 == pytest.approx(4.0 * v1)


# ---------------------------------------------------------------------------
# semi-hard triplet
# ---------------------------------------------------------------------------

def test_triplet_inactive_hinge():
    a = np.array([0.0, 0.0])
    p = np.array([math.sqrt(0.5), 0.0])   # d(a,p) = 0.5
    n = np.array([math.sqrt(0.9), 0.0])   # d(a,n) = 0.9
    value, _ = _triplet([a], [p], [n], margin=0.3)
    assert value == 0.0


def test_triplet_active_hinge():
    a = np.array([0.0, 0.0])
    p = np.array([math.sqrt(0.5), 0.0])
    n = np.array([0.0, math.sqrt(0.6)])
    value, _ = _triplet([a], [p], [n], margin=0.3)
    assert value == pytest.approx(0.2, abs=1e-12)


def test_triplet_anchor_equals_positive():
    rng = substream(17, "loss.trip")
    a = rng.standard_normal(3)
    n = a + np.array([2.0, 0.0, 0.0])  # squared distance 4 > margin
    value, _ = _triplet([a], [a.copy()], [n], margin=0.3)
    assert value == 0.0


def test_triplet_semi_hard_selection_prefers_closest_beyond_positive():
    a = np.zeros(1)
    p = np.array([1.0])                    # d = 1
    pool = [np.array([0.5]), np.array([1.2]), np.array([2.0])]  # d = .25, 1.44, 4
    value, g_pool = _triplet([a], [p], pool, margin=1.0)
    # semi-hard pick is d=1.44 (closest beyond 1): hinge = 1 - 1.44 + 1 = 0.56
    assert value == pytest.approx(0.56)
    assert np.any(g_pool[1] != 0.0)
    assert np.all(g_pool[0] == 0.0) and np.all(g_pool[2] == 0.0)


def test_triplet_fallback_uses_hardest():
    a = np.zeros(1)
    p = np.array([3.0])                    # d = 9; no negative farther
    pool = [np.array([1.0]), np.array([2.0])]  # d = 1, 4 -> hardest is d=1
    value, g_pool = _triplet([a], [p], pool, margin=0.5)
    assert value == pytest.approx(9 - 1 + 0.5)
    assert np.any(g_pool[0] != 0.0)
    assert np.all(g_pool[1] == 0.0)


def test_triplet_empty_pool_rejected():
    with pytest.raises(ValueError, match="pool"):
        losses.semi_hard_triplet_loss(np.zeros((1, 2)), np.array([0]), np.zeros((1, 2)), 0.3)


def test_triplet_requires_positive_margin():
    with pytest.raises(ValueError, match="margin"):
        losses.semi_hard_triplet_loss(np.zeros((1, 2)), np.array([0]), np.ones((2, 2)), 0.0)


def reference_semi_hard(a, p, pool, margin):
    """The per-anchor semi-hard triplet: (value, grad anchor, grad positive,
    pick, grad pick), picking the lowest pool index on a distance tie."""
    d_pos = float((a - p) @ (a - p))
    d_negs = [float((a - n) @ (a - n)) for n in pool]
    semi = [j for j, d in enumerate(d_negs) if d > d_pos]
    pick = min(semi or range(len(d_negs)), key=lambda j: (d_negs[j], j))
    hinge = d_pos - d_negs[pick] + margin
    if hinge <= 0:
        return 0.0, np.zeros_like(a), np.zeros_like(a), pick, np.zeros_like(a)
    n = pool[pick]
    return hinge, 2.0 * (n - p), -2.0 * (a - p), pick, 2.0 * (a - n)


@st.composite
def triplet_batch(draw):
    n, n_gallery, dim = draw(st.integers(1, 6)), draw(st.integers(2, 5)), draw(st.integers(1, 3))

    def rows(count):
        return np.array(draw(st.lists(grid_values, min_size=count * dim,
                                      max_size=count * dim))).reshape(count, dim)

    positive_idx = np.array([draw(st.integers(0, n_gallery - 1)) for _ in range(n)])
    margin = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    return rows(n), positive_idx, rows(n_gallery), margin


@settings(max_examples=300, deadline=None)
@given(triplet_batch())
def test_batched_semi_hard_triplet_matches_per_anchor_reference(batch):
    # integer-grid rows: distances tie exactly, and several anchors can pick
    # the same gallery row, so its gradient accumulates
    anchors, positive_idx, gallery, margin = batch
    values, grads = losses.semi_hard_triplet_loss(anchors, positive_idx, gallery, margin)
    g_gallery = np.zeros_like(gallery)
    for i, (a, pos) in enumerate(zip(anchors, positive_idx)):
        pool_idx = [j for j in range(len(gallery)) if j != pos]
        value, g_a, g_p, pick, g_n = reference_semi_hard(a, gallery[pos],
                                                         gallery[pool_idx], margin)
        assert values[i] == value
        assert np.array_equal(grads["anchors"][i], g_a)
        g_gallery[pos] += g_p
        g_gallery[pool_idx[pick]] += g_n
    assert np.array_equal(grads["gallery"], g_gallery)


# ---------------------------------------------------------------------------
# every loss is non-negative on random inputs
# ---------------------------------------------------------------------------

def test_losses_nonnegative_on_random_inputs():
    for trial in range(25):
        rng = substream(trial, "loss.nonneg")
        a, p = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        negs = rng.standard_normal((2, 3, 4))
        values, _ = losses.consistency_loss(a, p, negs, np.ones((2, 3), dtype=bool))
        assert np.all(values >= 0.0)
        values, _ = losses.cross_entropy(rng.standard_normal((2, 5)), rng.integers(5, size=2))
        assert np.all(values >= 0.0)
        entries = rng.standard_normal((2, 6, 4))
        senior = losses.similarity_log_probs(rng.standard_normal((2, 4)), entries, 0.1)
        junior = losses.similarity_log_probs(a, entries, 1.0)
        values, _ = losses.soft_loss(senior, junior)
        assert np.all(values >= 0.0)
        values, _ = losses.patch_mse_loss(rng.standard_normal((2, 3, 4)),
                                          rng.standard_normal((2, 3, 4)))
        assert np.all(values >= 0.0)
        values, _ = losses.semi_hard_triplet_loss(
            a, np.array([0, 1]), np.concatenate([p, negs[0]]),
            margin=float(rng.uniform(0.1, 1.0)))
        assert np.all(values >= 0.0)


# ---------------------------------------------------------------------------
# exact scatter-add
# ---------------------------------------------------------------------------

# wide magnitudes, so the order of repeated additions shows in the bits
_SCATTER_ELEMENTS = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                              st.sampled_from([0.0, -0.0, 0.1, 1e16, -1e16, 5e-324]))


@st.composite
def scatter_case(draw):
    """A target with 1-3 axes, an index hitting each row 0-4 times in
    shuffled order (flat or as pairs) and matching values."""
    ndim = draw(st.integers(1, 3))
    tail = tuple(draw(st.lists(st.integers(1, 3), min_size=ndim - 1, max_size=ndim - 1)))
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    index = np.array(draw(st.permutations([row for row, c in enumerate(counts)
                                           for _ in range(c)])), dtype=np.intp)
    if len(index) % 2 == 0 and draw(st.booleans()):
        index = index.reshape(-1, 2)  # the soft loss scatters an (anchors, P) index
    target = draw(hnp.arrays(float, (len(counts),) + tail, elements=_SCATTER_ELEMENTS))
    values = draw(hnp.arrays(float, index.shape + tail, elements=_SCATTER_ELEMENTS))
    return target, index, values


@settings(max_examples=300, deadline=None)
@example((np.array([-0.0, 1.0]), np.zeros(0, dtype=np.intp), np.zeros(0)))
@example((np.zeros((2, 2)), np.array([1, 1, 1]), np.array([[1e16, 1.0]] * 2 + [[-1e16, 1.0]])))
@given(scatter_case())
def test_scatter_add_matches_np_add_at_bit_for_bit(case):
    target, index, values = case
    expected = target.copy()
    np.add.at(expected, index, values)
    losses.scatter_add(target, index, values)
    assert target.tobytes() == expected.tobytes()
