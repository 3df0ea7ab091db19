import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcd import dataspace as ds
from plcd import encoder as enc
from plcd import losses, peerlearn, pipeline, rmac
from plcd.config import RunConfig
from plcd.seeds import substream

from support import params_digest


def tiny_split(noise=0.0, seed=3, landmarks=4):
    cfg = RunConfig(num_landmarks=landmarks, num_sections=6,
                    drones_per_landmark=6, grounds_per_landmark=2,
                    channels=4, map_side=6, latent_rank=8,
                    noise_sigma=noise, train_fraction=0.5, seed=seed)
    return ds.generate_synthetic(cfg)


def tiny_cfg(**kw):
    defaults = dict(embed_dim=8, epochs_senior=2, epochs_junior=2,
                    batch_streets=4, num_negatives=2, seed=5,
                    scales=(1, 2), encoder_tanh=True, lr_body=0.001)
    defaults.update(kw)
    return RunConfig(**defaults)


def identity_params(input_dim, classes=2):
    return enc.EncoderParams(
        role="drone", weight=np.eye(input_dim), bias=np.zeros(input_dim),
        classifier_weight=np.zeros((classes, input_dim)),
        classifier_bias=np.zeros(classes), tanh=False)


# ---------------------------------------------------------------------------
# mining
# ---------------------------------------------------------------------------

def _mining_fixture(noise=0.0):
    split = tiny_split(noise=noise)
    recs = split.train + split.test
    grounds = [r for r in recs if r.view == ds.GROUND]
    drones = [r for r in recs if r.view == ds.DRONE]
    anchor = grounds[0]
    positives = [next(d for d in drones
                      if d.landmark == anchor.landmark and d.section == s)
                 for s in range(1, 7)]
    negatives = [d for d in drones if d.landmark != anchor.landmark]
    return anchor, positives, negatives


def reference_miner(anchor, positive_batch, negative_batch, drone_params, num_negatives,
                    feature_fn=enc.embed_records):
    """The per-anchor miner ``mine_rows`` replaced, kept as its reference:
    ``feature_fn(params, records)`` gives each anchor's rows on their own
    (the anchor by the drone branch: drone space), which are normalized
    and scored by a row-wise ``einsum``; ties break on the lowest record id.
    Returns (positive, negatives)."""
    a = enc.unit_rows(feature_fn(drone_params, [anchor]))[0]
    candidates = enc.unit_rows(feature_fn(drone_params, positive_batch + negative_batch))
    sims = -np.einsum("ij,j->i", candidates, a)
    ids = np.array([r.id for r in positive_batch + negative_batch])
    split = len(positive_batch)
    best = np.lexsort((ids[:split], sims[:split]))[0]
    order = np.lexsort((ids[split:], sims[split:]))[:num_negatives]
    return positive_batch[best], [negative_batch[i] for i in order]


def mine_one(anchor_row, positives, negatives, candidate_rows, num_negatives):
    """``mine_rows`` for one anchor whose candidates are its positive batch
    followed by its negative pool; returns (positive, negatives)."""
    candidates = positives + negatives
    own = np.arange(len(candidates))[None] < len(positives)
    best, hardest, live = peerlearn.mine_rows(
        anchor_row[None], candidate_rows, np.array([r.id for r in candidates]),
        own, ~own, num_negatives)
    return candidates[best[0]], [candidates[j] for j in hardest[0][live[0]]]


def mine_embedded(anchor, positives, negatives, drone, num_negatives):
    """``mine_one`` on whole-image embeddings in drone space, the rows the
    per-anchor miner embedded by default."""
    anchor_row = enc.embed_records(drone, [anchor])[0]
    return mine_one(anchor_row, positives, negatives,
                    enc.embed_records(drone, positives + negatives), num_negatives)


def test_mining_noise_free_picks_visible_facet_with_identity_encoders():
    anchor, positives, negatives = _mining_fixture(noise=0.0)
    input_dim = anchor.featmap.size
    params = identity_params(input_dim)
    positive, _ = mine_embedded(anchor, positives, negatives, params, 2)
    assert positive.section == ds.infer_visible_facet(anchor, 6)


def test_mining_noise_free_exact_for_random_untrained_encoders():
    # the same map through any single projection keeps identical records tied
    anchor, positives, negatives = _mining_fixture(noise=0.0)
    input_dim = anchor.featmap.size
    drone = enc.init_params("drone", 8, input_dim, 2, substream(2, "b"), tanh=False)
    positive, _ = mine_embedded(anchor, positives, negatives, drone, 2)
    assert positive.section == ds.infer_visible_facet(anchor, 6)


def test_mining_all_ties_selects_lowest_id():
    anchor, positives, negatives = _mining_fixture()
    input_dim = anchor.featmap.size
    zero = identity_params(input_dim)
    zero.weight = np.zeros_like(zero.weight)
    positive, mined = mine_embedded(anchor, positives, negatives, zero, 2)
    assert positive.id == min(p.id for p in positives)
    assert [n.id for n in mined] == sorted(n.id for n in negatives)[:2]


def test_mining_validates_inputs():
    rows, ids = np.eye(3), np.arange(1, 4)
    own = np.array([[True, False, False], [False, True, False]])
    pool = np.array([[False, True, True], [True, False, True]])
    peerlearn.mine_rows(rows[:2], rows, ids, own, pool, 1)
    with pytest.raises(ValueError, match="positive candidate"):
        peerlearn.mine_rows(rows[:2], rows, ids, own & [[True], [False]], pool, 1)
    with pytest.raises(ValueError, match="non-empty negative pool"):
        peerlearn.mine_rows(rows[:2], rows, ids, own, pool & [[True], [False]], 1)
    with pytest.raises(ValueError, match="overlap"):
        peerlearn.mine_rows(rows[:2], rows, ids, own, pool | own, 1)


def _cosine(a, b):
    return float(enc.unit_rows(a) @ enc.unit_rows(b))


@st.composite
def mining_case(draw):
    """An anchor, one positive per section and a negative pool with features
    from a coarse integer grid, some rows scaled: byte-identical and
    equal-cosine candidates are common. Record ids are shuffled, so a row's
    place in the batch says nothing about its id."""
    dim = draw(st.integers(2, 16))  # from about 8 up, BLAS rounds copies apart
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    scale = st.sampled_from([1.0, 1.0, 0.5, 3.0])
    n_pos, n_neg = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    ids = draw(st.permutations(range(1, n_pos + n_neg + 2)))
    feats = {}

    def record(rid, landmark, section):
        feats[rid] = np.array(draw(vec), dtype=float) * draw(scale)
        return ds.ImageRecord(rid, ds.DRONE, landmark, section, np.zeros((1, 1, 1)))

    anchor = record(ids[0], 1, 1)
    positives = [record(ids[1 + i], 1, 1 + i) for i in range(n_pos)]
    negatives = [record(ids[1 + n_pos + i], 2 + i % 3, 1) for i in range(n_neg)]
    # a few byte-identical copies of an earlier candidate's features
    candidates = positives + negatives
    for i in draw(st.lists(st.integers(0, len(candidates) - 1), max_size=4)):
        feats[candidates[i].id] = feats[candidates[draw(st.integers(0, i))].id].copy()
    num_negatives = draw(st.integers(1, n_neg))
    return anchor, positives, negatives, feats, num_negatives


@settings(max_examples=200, deadline=None)
@given(mining_case())
def test_stacked_miner_matches_per_pair_brute_force(case):
    anchor, positives, negatives, feats, n = case
    positive, negs = mine_one(feats[anchor.id], positives, negatives,
                              np.stack([feats[r.id] for r in positives + negatives]), n)
    a = feats[anchor.id]
    pos_score = {r.id: _cosine(a, feats[r.id]) for r in positives}
    neg_score = {r.id: _cosine(a, feats[r.id]) for r in negatives}
    best = min(positives, key=lambda r: (-pos_score[r.id], r.id))
    top = sorted(negatives, key=lambda r: (-neg_score[r.id], r.id))[:n]
    # the same picks, except among scores within 1e-12 of each other
    assert abs(pos_score[positive.id] - pos_score[best.id]) <= 1e-12
    assert len(negs) == n
    for got, want in zip(negs, top):
        assert abs(neg_score[got.id] - neg_score[want.id]) <= 1e-12
    # the same picks as Python's min/sorted on (-score, id) over the miner's
    # own scores (a -0.0 score ties a 0.0 one)
    rows = enc.unit_rows(np.stack([feats[r.id] for r in positives + negatives]))
    sims = np.einsum("ij,j->i", rows, enc.unit_rows(a[None])[0])
    key = dict(zip([r.id for r in positives + negatives], sims))
    assert positive is min(positives, key=lambda r: (-key[r.id], r.id))
    assert [r.id for r in negs] == [
        r.id for r in sorted(negatives, key=lambda r: (-key[r.id], r.id))[:n]]
    # byte-identical candidates tie exactly: the lowest id wins
    same = [r.id for r in positives
            if feats[r.id].tobytes() == feats[positive.id].tobytes()]
    assert positive.id == min(same)
    picked = {r.id for r in negs}
    for r in negs:
        assert all(o.id in picked for o in negatives
                   if o.id < r.id and feats[o.id].tobytes() == feats[r.id].tobytes())


def test_byte_identical_candidates_tie_anywhere_in_the_batch():
    # wide rows: a BLAS product rounds copies in different rows apart
    rng = substream(9, "test.copies")
    for trial in range(40):
        ids = rng.permutation(np.arange(1, 20))
        dim = 32
        best = rng.standard_normal(dim)
        close = best + 0.3 * rng.standard_normal(dim)  # beats every random row
        anchor = ds.ImageRecord(int(ids[0]), ds.DRONE, 1, 1, np.zeros((1, 1, 1)))
        positives = [ds.ImageRecord(int(i), ds.DRONE, 1, s + 1, np.zeros((1, 1, 1)))
                     for s, i in enumerate(ids[1:7])]
        negatives = [ds.ImageRecord(int(i), ds.DRONE, 2, 1, np.zeros((1, 1, 1)))
                     for i in ids[7:]]
        feats = {anchor.id: best + 0.1 * rng.standard_normal(dim)}
        feats.update({r.id: best.copy() for r in positives})
        feats.update({r.id: (close if k % 2 else rng.standard_normal(dim))
                      for k, r in enumerate(negatives)})
        positive, negs = mine_one(feats[anchor.id], positives, negatives,
                                  np.stack([feats[r.id] for r in positives + negatives]), 6)
        assert positive.id == min(r.id for r in positives)
        copies = sorted(r.id for k, r in enumerate(negatives) if k % 2)
        assert [r.id for r in negs] == copies


def step_feature(step):
    """The feature hook the per-anchor miner read in training: ground params
    read the step's whole-image rows, anything else its region-aggregate
    rows."""
    def feature(params, records):
        if params is step.ground:
            return step.whole[[step.whole_row[r.id] for r in records]]
        return step.feats[step.rows(records)]
    return feature


@pytest.mark.parametrize("shared", [False, True])
def test_step_miner_matches_the_per_anchor_reference(shared):
    split = tiny_split(noise=0.2, landmarks=6)
    cfg = tiny_cfg()
    ctx = peerlearn.build_context(split)
    ground, drone, _ = peerlearn.train_senior(split, tiny_cfg(epochs_senior=1))
    if shared:
        drone = ground
    cache = rmac.PooledCache(rmac.config_grid(cfg, ctx.map_shape), ctx.map_shape)
    rng = substream(4, "test.step.miner")
    # one drone per section: the two anchors of a landmark draw the same
    # batch, so every pool holds each of its drones twice
    entries = [(a, ds.draw_per_section(ctx.drones, ctx.sections, a.landmark, rng))
               for a in ctx.grounds]
    step = peerlearn._Step([ground] if shared else [ground, drone], cache, entries, True)
    best, hardest, live = step.mine(cfg.num_negatives)
    feature = step_feature(step)
    for i, (anchor, positives) in enumerate(entries):
        negatives = batch_negatives(entries, anchor)
        want_positive, want_negatives = reference_miner(
            anchor, positives, negatives, drone, min(cfg.num_negatives, len(negatives)),
            feature)
        assert step.candidates[best[i]] is want_positive
        assert [step.candidates[j].id for j in hardest[i][live[i]]] == [
            r.id for r in want_negatives]
    assert len({r.id for r in step.candidates}) < len(step.candidates)


@pytest.mark.parametrize("mining, junior", [(False, False), (True, False), (True, True)])
def test_draw_follows_each_step_rule_in_batch_order(mining, junior):
    # Step I takes the miner's picks, or draws a positive then a negative
    # permutation per anchor; Step II keeps the mined negatives, draws a
    # positive and takes every section as its doublet
    split = tiny_split(noise=0.2, landmarks=6)
    cfg = tiny_cfg()
    ctx = peerlearn.build_context(split)
    ground, drone = peerlearn._init_pair(ctx, cfg, "test.draw")
    cache = rmac.PooledCache(rmac.config_grid(cfg, ctx.map_shape), ctx.map_shape)
    rng = substream(3, "test.draw.batch")
    entries = [(a, ds.draw_per_section(ctx.drones, ctx.sections, a.landmark, rng))
               for a in ctx.grounds]
    step = peerlearn._Step([ground, drone], cache, entries, mining)
    drawn, replay = substream(2, "draw"), substream(2, "draw")
    positive, negatives, live, doublets = peerlearn._draw(step, cfg, drawn, junior)
    mined = step.mine(cfg.num_negatives) if mining else None
    picks = step.candidates
    for i, (anchor, positives) in enumerate(entries):
        got = [picks[j] for j in negatives[i][live[i]]]
        if mined is not None:
            assert got == [picks[j] for j in mined[1][i][mined[2][i]]]
        if mined is not None and not junior:
            assert positive[i] == mined[0][i] and doublets is None
            continue
        assert picks[positive[i]] is positives[int(replay.integers(len(positives)))]
        if junior:
            assert [picks[j] for j in doublets[i]] == positives
        else:
            pool = batch_negatives(entries, anchor)
            assert got == [pool[k] for k in replay.permutation(len(pool))[: cfg.num_negatives]]
    assert drawn.bit_generator.state == replay.bit_generator.state


def test_mining_oracle_after_warmup():
    # noise-free: mined positive matches the visible facet on >= 95% of anchors
    # after one warm-up epoch of random picks
    split = tiny_split(noise=0.0, landmarks=6)
    cfg = tiny_cfg(epochs_senior=1)
    ground, drone, _ = peerlearn.train_senior(split, cfg, mining=False)
    ctx = peerlearn.build_context(split)
    rng = substream(0, "test.orcl")
    hits = total = 0
    for anchor in ctx.grounds:
        positives = ds.draw_per_section(ctx.drones, ctx.sections, anchor.landmark, rng)
        negatives = [d for lm, by in ctx.drones.items() if lm != anchor.landmark
                     for pool in by.values() for d in pool]
        positive, _ = mine_embedded(anchor, positives, negatives, drone, 2)
        hits += positive.section == ds.infer_visible_facet(anchor, 6)
        total += 1
    assert hits / total >= 0.95


# ---------------------------------------------------------------------------
# training invariants
# ---------------------------------------------------------------------------

def test_zero_epochs_leaves_params_at_init():
    split = tiny_split()
    cfg = tiny_cfg(epochs_senior=0)
    ground, drone, log = peerlearn.train_senior(split, cfg)
    ctx = peerlearn.build_context(split)
    g0, d0 = peerlearn._init_pair(ctx, cfg, "peerlearn.init.senior")
    assert params_digest(ground) == params_digest(g0)
    assert params_digest(drone) == params_digest(d0)
    assert log == []


def test_training_is_deterministic():
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg()
    a = peerlearn.train_senior(split, cfg)
    b = peerlearn.train_senior(split, cfg)
    assert params_digest(a[0]) == params_digest(b[0])
    assert params_digest(a[1]) == params_digest(b[1])
    assert a[2] == b[2]
    ja = peerlearn.train_junior(split, (a[0], a[1]), cfg)
    jb = peerlearn.train_junior(split, (b[0], b[1]), cfg)
    assert params_digest(ja[0]) == params_digest(jb[0])
    assert ja[2] == jb[2]


def test_senior_frozen_through_step_two():
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg()
    ground, drone, _ = peerlearn.train_senior(split, cfg)
    before = (params_digest(ground), params_digest(drone))
    peerlearn.train_junior(split, (ground, drone), cfg)
    assert (params_digest(ground), params_digest(drone)) == before


def test_zero_junior_rate_keeps_the_senior_init():
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg(junior_lr_scale=0.0)
    ground, drone, _ = peerlearn.train_senior(split, cfg)
    jg, jd, log = peerlearn.train_junior(split, (ground, drone), cfg)
    assert log  # the junior took steps, each at rate 0
    assert params_digest(jg) == params_digest(ground)
    assert params_digest(jd) == params_digest(drone)


def test_training_log_format():
    split = tiny_split(noise=0.2)
    ground, drone, log = peerlearn.train_senior(split, tiny_cfg(epochs_senior=1))
    assert log
    for line in log:
        epoch, step, hard, soft, total = line.split()
        assert int(epoch) == 0
        float(hard), float(soft), float(total)
        assert float(soft) == 0.0
        assert float(total) == pytest.approx(float(hard))


# ---------------------------------------------------------------------------
# best-sub-region representation
# ---------------------------------------------------------------------------

def _grid_and_params(split):
    rec = split.train[0]
    grid = rmac.region_grid(rec.featmap.shape[1], (1, 2))
    params = enc.init_params("drone", 8, rec.featmap.size, 2, substream(3, "gp"), tanh=False)
    return grid, params


def test_constant_map_descriptors_agree():
    split = tiny_split()
    grid, params = _grid_and_params(split)
    rec = split.train[0]
    const = ds.ImageRecord(999, ds.DRONE, rec.landmark, 1,
                           np.full_like(rec.featmap, 1.7))
    descriptors = rmac.gallery_descriptors(params, grid, [const])[0]
    # every pooled vector is the same constant vector; centered it is zero, so
    # all rows collapse to the (normalized) bias image of the encoder
    sims = descriptors @ descriptors[0]
    assert np.allclose(np.abs(sims), 1.0, atol=1e-9) or np.allclose(sims, 0.0)


def test_max_score_dominates_whole_image_score():
    split = tiny_split(noise=0.3)
    grid, params = _grid_and_params(split)
    rng = substream(4, "best")
    records = [r for r in split.train if r.view == ds.DRONE][:10]
    descriptors = rmac.gallery_descriptors(params, grid, records)
    queries = enc.unit_rows(rng.standard_normal((5, 8)))
    best = pipeline.cosine_scores(queries, descriptors)
    for q, row in zip(queries, best):
        for desc, score in zip(descriptors, row):
            assert score == pytest.approx(max(float(d @ q) for d in desc), abs=1e-12)
            assert score >= float(desc[0] @ q) - 1e-12


@pytest.mark.parametrize("size", [8, 9, 10])
def test_drone_features_match_training_aggregate(monkeypatch, size):
    # retrieval forwards in fixed blocks; a small block makes several of
    # them, and the sizes end on a full block, a lone record and a pair
    monkeypatch.setattr(rmac, "RETRIEVAL_BLOCK", 4)
    split = tiny_split(noise=0.2)
    grid, params = _grid_and_params(split)
    drones = [r for r in split.train if r.view == ds.DRONE][:size]
    assert len(drones) == size
    feats = rmac.drone_features(params, grid, drones)
    cache = rmac.PooledCache(grid, drones[0].featmap.shape)
    anchor = next(r for r in split.train if r.view == ds.GROUND)
    step = peerlearn._Step([params], cache, [(anchor, drones)])
    assert feats.tobytes() == step.feats[step.rows(drones)].tobytes()
    for rec, feat in zip(drones, feats):
        # a one-record stack takes numpy's vector path: last bits only
        alone = rmac.aggregate_feature(rmac.region_embed(
            params, cache.blocks(params), cache.stack([rec])))[0][0]
        assert np.allclose(feat, alone, rtol=0.0, atol=1e-12)


def recomputing_aggregate_backward(descs, g_feats):
    """The aggregate backward that recomputes the norms and returns a fresh
    array: the bit reference for ``aggregate_backward``."""
    norms = np.linalg.norm(descs, axis=-1, keepdims=True)
    live = norms >= 1e-12
    norms = np.where(live, norms, 1.0)
    unit = descs / norms
    g = g_feats[:, None, :] / descs.shape[1]
    g_rows = (g - np.sum(g * unit, axis=-1, keepdims=True) * unit) / norms
    return np.where(live, g_rows, 0.0)


def _aggregate_backward(descs, g_feats, g_descs=None):
    g_descs = np.zeros_like(descs) if g_descs is None else g_descs
    rmac.aggregate_backward(descs, rmac.aggregate_feature(descs)[1], g_feats, g_descs)
    return g_descs


def test_aggregate_backward_matches_per_row_chain():
    rng = substream(6, "agg")
    descs = rng.standard_normal((3, 5, 4))
    descs[1, 2] = 0.0  # a zero row passes no gradient
    g_feats = rng.standard_normal((3, 4))
    batched = _aggregate_backward(descs, g_feats)
    for d, g, out in zip(descs, g_feats, batched):
        g_scaled = g / d.shape[0]
        for row, got in zip(d, out):
            norm = float(np.linalg.norm(row))
            if norm < 1e-12:
                assert not got.any()
                continue
            unit = row / norm
            expected = (g_scaled - float(g_scaled @ unit) * unit) / norm
            assert np.max(np.abs(got - expected)) <= 1e-15


@pytest.mark.parametrize("n", [1, 5, 56])
def test_aggregate_backward_matches_the_recomputing_formula_bit_for_bit(n):
    # training's layout: (n, k, dim) views of contiguous (k, n, dim) arrays
    rng = substream(7, "agg.bits")
    descs = rng.standard_normal((15, n, 128)).transpose(1, 0, 2)
    descs[0, 3] = 0.0
    descs[-1, 4] *= 1e-15  # below the 1e-12 floor: passes no gradient
    feats = rmac.aggregate_feature(descs)[0]
    assert feats.tobytes() == (descs / np.maximum(np.linalg.norm(
        descs, axis=-1, keepdims=True), 1e-12)).mean(axis=-2).tobytes()
    g_feats = rng.standard_normal((n, 128))
    start = rng.standard_normal((15, n, 128)).transpose(1, 0, 2)
    start[0, 3, :2] = -0.0
    expected = start + recomputing_aggregate_backward(descs, g_feats)
    got = _aggregate_backward(descs, g_feats, start.copy(order="K"))
    assert got.tobytes() == expected.tobytes()
    assert got[-1, 4].tobytes() == start[-1, 4].tobytes()


def test_identical_records_tie_exactly_in_a_step():
    # the miner's lowest-id tie rule needs copies of a map to embed to the
    # same bits wherever they sit in the step's stack
    split = tiny_split()
    grid, params = _grid_and_params(split)
    drones = [r for r in split.train if r.view == ds.DRONE]
    copies = [ds.ImageRecord(1000 + i, ds.DRONE, 1, 1, drones[3].featmap)
              for i in range(3)]
    cache = rmac.PooledCache(grid, drones[0].featmap.shape)
    step = peerlearn._Step([params], cache,
                           [(drones[0], drones[1:] + copies)])
    rows = step.feats[step.rows([drones[3], *copies])]
    assert all(np.array_equal(rows[0], r) for r in rows[1:])


def _forward(params, record):
    pre = params.weight @ record.featmap.ravel() + params.bias
    return np.tanh(pre) if params.tanh else pre


def batch_negatives(entries, anchor):
    """An anchor's negative pool: the other landmarks' positive batches, in
    entry order, a drone once per batch that holds it."""
    return [r for other, positives in entries if other.landmark != anchor.landmark
            for r in positives]


def reference_step(params_list, cache, entries, mined_for, ctx, senior=None,
                   tau=0.1, lambda1=1.0):
    """The per-anchor step: each anchor embeds, backs through its classifier
    heads and backs through the whole-image path on its own (the backward
    re-running the forward); the drones share one region forward/backward."""
    ground, drone = params_list[0], params_list[-1]
    grads = [enc.new_grads(p) for p in params_list]
    g_grads, d_grads = grads[0], grads[-1]
    drones = list({r.id: r for _, positives in entries for r in positives}.values())
    row = {r.id: i for i, r in enumerate(drones)}
    pooled = cache.stack(drones)
    descs = rmac.region_embed(drone, cache.blocks(drone), pooled)
    feats = rmac.aggregate_feature(descs)[0]
    g_feats, g_descs = np.zeros_like(feats), np.zeros_like(descs)
    per_image, dim = descs.shape[1:]
    for anchor, positives in entries:
        positive, negatives = mined_for[anchor.id]
        x = anchor.featmap.ravel()
        a = _forward(ground, anchor)
        p_row, neg_rows = row[positive.id], [row[r.id] for r in negatives]
        p = feats[p_row]
        # each loss scores a stack of one row: this anchor's
        _, g = losses.consistency_loss(a[None], p[None], feats[neg_rows][None],
                                       np.ones((1, len(neg_rows)), dtype=bool))
        label = np.array([ctx.class_index[anchor.landmark]])
        g_a, g_p = g["anchors"][0], g["positives"][0]
        for params, acc, emb in ((ground, g_grads, a), (drone, d_grads, p)):
            _, g_log = losses.cross_entropy(
                (params.classifier_weight @ emb + params.classifier_bias)[None], label)
            g_log = g_log[0]
            acc.classifier_weight += np.outer(g_log, emb)
            acc.classifier_bias += g_log
            if emb is a:
                g_a = g_a + params.classifier_weight.T @ g_log
            else:
                g_p = g_p + params.classifier_weight.T @ g_log
        g_feats[p_row] += g_p
        for r, g_n in zip(neg_rows, g["negatives"][0]):
            g_feats[r] += g_n
        if senior is not None:
            rows = [row[r.id] for r in positives]
            senior_descs = rmac.region_embed(senior[1], cache.blocks(senior[1]), pooled)
            senior_log_probs = losses.similarity_log_probs(
                _forward(senior[0], anchor)[None],
                senior_descs[rows].reshape(1, -1, dim), tau)
            entries = descs[rows].reshape(-1, dim)
            junior_log_probs = losses.similarity_log_probs(a[None], entries[None], 1.0)
            _, g_dots = losses.soft_loss(senior_log_probs, junior_log_probs)
            g_a = g_a + lambda1 * entries.T @ g_dots[0]
            g_descs[rows] += lambda1 * np.outer(g_dots[0], a).reshape(len(rows), per_image, dim)
        pre = ground.weight @ x + ground.bias
        g_pre = g_a * (1.0 - np.tanh(pre) ** 2) if ground.tanh else g_a
        g_grads.weight += np.outer(g_pre, x)
        g_grads.bias += g_pre
    g_descs += _aggregate_backward(descs, g_feats)
    cache.backward(drone, pooled, descs, g_descs, d_grads)
    return grads


@pytest.mark.parametrize("tanh", [False, True])
@pytest.mark.parametrize("kind", ["senior", "junior", "shared", "shared-junior",
                                  "junior-shared-drone", "junior-ragged"])
def test_batched_step_matches_per_anchor_reference(tanh, kind):
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg(encoder_tanh=tanh)
    ctx = peerlearn.build_context(split)
    ground, drone = peerlearn._init_pair(ctx, cfg, "test.step")
    if kind.startswith("shared"):
        drone = ground
    params_list = [ground] if drone is ground else [ground, drone]
    senior = None
    if "junior" in kind:
        sg, sd = peerlearn._init_pair(ctx, cfg, "test.step.senior")
        senior = (sg, sg) if kind.startswith("shared") else (sg, sd)
    cache = rmac.PooledCache(rmac.config_grid(cfg, ctx.map_shape), ctx.map_shape)
    rng = substream(8, "test.step.batch")
    entries = []
    if kind in ("junior-shared-drone", "junior-ragged"):
        # two anchors of one landmark and one other: the third anchor's
        # negative pool holds every drone of the first two twice, theirs
        # only the third's drones
        first = ctx.grounds[0]
        twin = next(a for a in ctx.grounds[1:] if a.landmark == first.landmark)
        other = next(a for a in ctx.grounds if a.landmark != first.landmark)
        anchors = [first, twin, other]
    else:
        anchors = ctx.grounds
    for anchor in anchors:
        same = [positives for other, positives in entries if other.landmark == anchor.landmark]
        # anchors of one landmark share a positive batch: positives repeat
        entries.append((anchor, same[0] if same else
                        ds.draw_per_section(ctx.drones, ctx.sections, anchor.landmark, rng)))
    # as in training, an anchor takes all of a pool smaller than num_negatives
    num_negatives = 8 if kind == "junior-ragged" else 3
    mined_for = {}
    for anchor, positives in entries:
        negatives = batch_negatives(entries, anchor)
        mined_for[anchor.id] = (
            positives[0],
            [negatives[i] for i in rng.permutation(len(negatives))[:num_negatives]])
    # anchors of one landmark share their positive: the drone head's
    # gradient must reach that row once per anchor
    assert len({p.id for p, _ in mined_for.values()}) < len(mined_for)
    if kind == "junior-ragged":
        assert sorted(len(n) for _, n in mined_for.values()) == [6, 6, 8]

    frozen = None if senior is None else (*senior, cache.blocks(senior[1]))
    step = peerlearn._Step(params_list, cache, entries, True, frozen)
    neg_rows, live = peerlearn._pad([np.array(step.rows(mined_for[a.id][1]), dtype=int)
                                     for a in anchors])
    peerlearn._hard_terms(step, np.array(step.rows([mined_for[a.id][0] for a in anchors])),
                          neg_rows, live, ctx.class_index)
    if senior is not None:
        peerlearn._soft_terms(step, np.array([step.rows(p) for _, p in entries]), 0.1, 1.0)
    step.backward()
    expected = reference_step(params_list, cache, entries, mined_for, ctx, senior)
    for got, want in zip(step.grads, expected):
        for name, arr in got.arrays().items():
            assert np.max(np.abs(arr - want.arrays()[name])) <= 1e-10, name


def test_cached_senior_blocks_match_blocks_rebuilt_every_step(monkeypatch):
    # Step II builds the frozen senior's region weight blocks once per run;
    # steps that rebuild them from the senior must train to the same bits
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg(epochs_junior=3)
    sg, sd, _ = peerlearn.train_senior(split, cfg)
    built = []
    blocks = rmac.PooledCache.blocks
    monkeypatch.setattr(rmac.PooledCache, "blocks",
                        lambda cache, params: built.append(params) or blocks(cache, params))
    cached = peerlearn.train_junior(split, (sg, sd), cfg)
    assert sum(params is sd for params in built) == 1
    assert len(built) > 2  # the trained junior's blocks, once per step

    step_init = peerlearn._Step.__init__

    def rebuilding(self, params_list, cache, entries, mining=False, senior=None):
        senior = (*senior[:2], blocks(cache, senior[1]))
        step_init(self, params_list, cache, entries, mining, senior)

    monkeypatch.setattr(peerlearn._Step, "__init__", rebuilding)
    rebuilt = peerlearn.train_junior(split, (sg, sd), cfg)
    assert cached[2] == rebuilt[2]
    for got, want in zip(cached[:2], rebuilt[:2]):
        assert params_digest(got) == params_digest(want)


def test_anchors_join_the_region_stack_only_for_drone_space_mining():
    # the miner ranks the anchors in drone space, so a mining step of two
    # branches embeds them with the drone branch too
    split = tiny_split()
    cfg = tiny_cfg()
    ctx = peerlearn.build_context(split)
    ground, drone = peerlearn._init_pair(ctx, cfg, "test.stack")
    cache = rmac.PooledCache(rmac.config_grid(cfg, ctx.map_shape), ctx.map_shape)
    entries = [(a, ds.draw_per_section(ctx.drones, ctx.sections, a.landmark,
                                           substream(1, "s")))
               for a in ctx.grounds]
    anchor_ids = {a.id for a, _ in entries}
    drone_ids = {r.id for _, positives in entries for r in positives}
    for params_list, mining, region, whole in (
            ([ground, drone], True, anchor_ids | drone_ids, anchor_ids),
            ([ground, drone], False, drone_ids, anchor_ids),
            ([ground], True, drone_ids, anchor_ids | drone_ids),
            ([ground], False, drone_ids, anchor_ids)):
        step = peerlearn._Step(params_list, cache, entries, mining)
        assert set(step.row) == region and set(step.whole_row) == whole


def test_trained_senior_beats_untrained_noise_free_retrieval():
    # untrained independent branches score at chance across branches; step I
    # alignment must lift facet-level CMC@1 above that
    from plcd import pipeline

    cfg = RunConfig(seed=3, num_landmarks=8, drones_per_landmark=6,
                    grounds_per_landmark=3, channels=8, map_side=6,
                    latent_rank=8, noise_sigma=0.0, embed_dim=16,
                    epochs_senior=8, epochs_junior=2, scales=(1, 2),
                    k_graph=4, k_init=4)
    split = pipeline.make_split(cfg)
    ctx = peerlearn.build_context(split)
    g0, d0 = peerlearn._init_pair(ctx, cfg, "peerlearn.init.senior")
    untrained = pipeline.evaluate_mode(cfg, split, pipeline.TrainedModels(
        g0, d0, g0, d0, d0, {}), "ground-drone").cmc[1]
    sg, sd, _ = peerlearn.train_senior(split, cfg)
    trained = pipeline.evaluate_mode(cfg, split, pipeline.TrainedModels(
        sg, sd, sg, sd, sd, {}), "ground-drone").cmc[1]
    assert trained > untrained
