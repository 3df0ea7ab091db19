import numpy as np
import pytest

from plcd import dataspace as ds
from plcd import encoder as enc
from plcd import peerlearn, rmac
from plcd.seeds import substream


def tiny_split(noise=0.0, seed=3, landmarks=4):
    cfg = ds.GenConfig(num_landmarks=landmarks, num_sections=6,
                       drones_per_landmark=6, grounds_per_landmark=2,
                       channels=4, map_side=6, latent_rank=8,
                       noise_sigma=noise, train_fraction=0.5, seed=seed)
    return ds.generate_synthetic(cfg)


def tiny_cfg(**kw):
    defaults = dict(embed_dim=8, epochs_senior=2, epochs_junior=2,
                    batch_streets=4, num_negatives=2, seed=5,
                    scales=(1, 2), encoder_tanh=True)
    defaults.update(kw)
    return peerlearn.PeerConfig(**defaults)


def identity_params(input_dim, classes=2):
    return enc.EncoderParams(
        role="drone", weight=np.eye(input_dim), bias=np.zeros(input_dim),
        classifier_weight=np.zeros((classes, input_dim)),
        classifier_bias=np.zeros(classes))


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


def test_mining_noise_free_picks_visible_facet_with_identity_encoders():
    anchor, positives, negatives = _mining_fixture(noise=0.0)
    input_dim = anchor.featmap.size
    params = identity_params(input_dim)
    mined = peerlearn.mine_easy_triplet(anchor, positives, negatives,
                                        params, params, 2)
    assert mined.positive.section == ds.infer_visible_facet(anchor, 6)


def test_mining_noise_free_exact_for_random_untrained_encoders():
    # the same map through any single projection keeps identical records tied
    anchor, positives, negatives = _mining_fixture(noise=0.0)
    input_dim = anchor.featmap.size
    ground = enc.init_params("ground", 8, input_dim, 2, substream(1, "a"))
    drone = enc.init_params("drone", 8, input_dim, 2, substream(2, "b"))
    mined = peerlearn.mine_easy_triplet(anchor, positives, negatives,
                                        ground, drone, 2, space="drone")
    assert mined.positive.section == ds.infer_visible_facet(anchor, 6)


def test_mining_all_ties_selects_lowest_id():
    anchor, positives, negatives = _mining_fixture()
    input_dim = anchor.featmap.size
    zero = identity_params(input_dim)
    zero.weight = np.zeros_like(zero.weight)
    mined = peerlearn.mine_easy_triplet(anchor, positives, negatives, zero, zero, 2)
    assert mined.positive.id == min(p.id for p in positives)
    assert [n.id for n in mined.negatives] == sorted(n.id for n in negatives)[:2]


def test_mining_validates_inputs():
    anchor, positives, negatives = _mining_fixture()
    params = identity_params(anchor.featmap.size)
    with pytest.raises(ValueError, match="empty negative"):
        peerlearn.mine_easy_triplet(anchor, positives, [], params, params, 1)
    with pytest.raises(ValueError, match="pool holds"):
        peerlearn.mine_easy_triplet(anchor, positives, negatives, params, params,
                                    len(negatives) + 1)
    with pytest.raises(ValueError, match="identity-disjoint"):
        peerlearn.mine_easy_triplet(anchor, positives, positives, params, params, 1)
    with pytest.raises(ValueError, match="one record per section"):
        peerlearn.mine_easy_triplet(anchor, positives[:1] * 2, negatives,
                                    params, params, 1)


def test_mining_oracle_after_warmup():
    # noise-free: mined positive matches the visible facet on >= 95% of anchors
    split = tiny_split(noise=0.0, landmarks=6)
    cfg = tiny_cfg(epochs_senior=1, warmup_epochs=1)  # one warmup epoch only
    ground, drone, _ = peerlearn.train_senior(split, cfg)
    ctx = peerlearn.build_context(split)
    rng = substream(0, "test.orcl")
    hits = total = 0
    for anchor in ctx.grounds:
        positives = peerlearn._sample_positive_batch(ctx, anchor.landmark, rng)
        negatives = [d for lm, by in ctx.drones.items() if lm != anchor.landmark
                     for pool in by.values() for d in pool]
        mined = peerlearn.mine_easy_triplet(anchor, positives, negatives,
                                            ground, drone, 2)
        hits += mined.positive.section == ds.infer_visible_facet(anchor, 6)
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
    assert enc.params_digest(ground) == enc.params_digest(g0)
    assert enc.params_digest(drone) == enc.params_digest(d0)
    assert log == []


def test_training_is_deterministic():
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg()
    a = peerlearn.train_senior(split, cfg)
    b = peerlearn.train_senior(split, cfg)
    assert enc.params_digest(a[0]) == enc.params_digest(b[0])
    assert enc.params_digest(a[1]) == enc.params_digest(b[1])
    assert a[2] == b[2]
    ja = peerlearn.train_junior(split, (a[0], a[1]), cfg)
    jb = peerlearn.train_junior(split, (b[0], b[1]), cfg)
    assert enc.params_digest(ja[0]) == enc.params_digest(jb[0])
    assert ja[2] == jb[2]


def test_senior_frozen_through_step_two():
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg()
    ground, drone, _ = peerlearn.train_senior(split, cfg)
    before = (enc.params_digest(ground), enc.params_digest(drone))
    peerlearn.train_junior(split, (ground, drone), cfg)
    assert (enc.params_digest(ground), enc.params_digest(drone)) == before


def test_junior_fresh_init_differs_from_senior_init():
    split = tiny_split(noise=0.2)
    cfg = tiny_cfg(junior_init="fresh", epochs_junior=0)
    ground, drone, _ = peerlearn.train_senior(split, cfg)
    jg, jd, _ = peerlearn.train_junior(split, (ground, drone), cfg)
    assert enc.params_digest(jg) != enc.params_digest(ground)


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


def test_config_validation_errors():
    with pytest.raises(ValueError, match="tau"):
        tiny_cfg(tau=0.0).validate()
    with pytest.raises(ValueError, match="junior_init"):
        tiny_cfg(junior_init="other").validate()
    with pytest.raises(ValueError, match="mining_space"):
        tiny_cfg(mining_space="nope").validate()


# ---------------------------------------------------------------------------
# best-sub-region representation
# ---------------------------------------------------------------------------

def _grid_and_params(split):
    rec = split.train[0]
    grid = rmac.region_grid(rec.featmap.shape[1], (1, 2),
                            width_table={1: 6, 2: 4}, reference_side=6)
    params = enc.init_params("drone", 8, rec.featmap.size, 2, substream(3, "gp"))
    return grid, params


def test_best_subregion_needs_grid():
    split = tiny_split()
    _, params = _grid_and_params(split)
    with pytest.raises(ValueError, match="grid"):
        peerlearn.gallery_descriptors(params, [], [split.train[0]])


def test_constant_map_descriptors_agree():
    split = tiny_split()
    grid, params = _grid_and_params(split)
    rec = split.train[0]
    const = ds.ImageRecord(999, ds.DRONE, rec.landmark, 1,
                           np.full_like(rec.featmap, 1.7))
    descriptors = peerlearn.gallery_descriptors(params, grid, [const])[0]
    # every pooled vector is the same constant vector; centered it is zero, so
    # all rows collapse to the (normalized) bias image of the encoder
    sims = descriptors @ descriptors[0]
    assert np.allclose(np.abs(sims), 1.0, atol=1e-9) or np.allclose(sims, 0.0)


def test_max_score_dominates_whole_image_score():
    split = tiny_split(noise=0.3)
    grid, params = _grid_and_params(split)
    rng = substream(4, "best")
    records = [r for r in split.train if r.view == ds.DRONE][:10]
    for descriptors in peerlearn.gallery_descriptors(params, grid, records):
        for _ in range(5):
            q = rng.standard_normal(8)
            whole = float(descriptors[0] @ enc.l2_normalize(q))
            assert peerlearn.max_region_score(q, descriptors) >= whole - 1e-12


def test_drone_features_match_training_aggregate(monkeypatch):
    # retrieval forwards in fixed blocks; a small block makes several of them
    monkeypatch.setattr(peerlearn, "RETRIEVAL_BLOCK", 4)
    split = tiny_split(noise=0.2)
    grid, params = _grid_and_params(split)
    drones = [r for r in split.train if r.view == ds.DRONE]
    feats = peerlearn.drone_features(params, grid, drones)
    cache = peerlearn._PooledCache(grid, drones[0].featmap.shape)
    step = peerlearn._Step(0, [params], cache, [(drones[0], drones[1:])])
    assert np.allclose(feats, step.feats[step.rows(drones)], rtol=0.0, atol=1e-12)
    for rec, feat in zip(drones, feats):
        alone = peerlearn.aggregate_feature(
            enc.region_embed(params, cache.avg, cache.stack([rec])))[0]
        assert np.allclose(feat, alone, rtol=0.0, atol=1e-12)
    unit = peerlearn.drone_features(params, grid, drones, normalize=True)
    assert np.allclose(unit, [enc.l2_normalize(f) for f in feats])


def test_aggregate_backward_matches_per_row_chain():
    rng = substream(6, "agg")
    descs = rng.standard_normal((3, 5, 4))
    descs[1, 2] = 0.0  # a zero row passes no gradient
    g_feats = rng.standard_normal((3, 4))
    batched = peerlearn.aggregate_backward(descs, g_feats)
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


def test_identical_records_tie_exactly_in_a_step():
    # the miner's lowest-id tie rule needs copies of a map to embed to the
    # same bits wherever they sit in the step's stack
    split = tiny_split()
    grid, params = _grid_and_params(split)
    drones = [r for r in split.train if r.view == ds.DRONE]
    copies = [ds.ImageRecord(1000 + i, ds.DRONE, 1, 1, drones[3].featmap)
              for i in range(3)]
    cache = peerlearn._PooledCache(grid, drones[0].featmap.shape)
    step = peerlearn._Step(0, [params], cache,
                           [(drones[0], drones[1:] + copies)])
    rows = step.feats[step.rows([drones[3], *copies])]
    assert all(np.array_equal(rows[0], r) for r in rows[1:])


def test_trained_senior_beats_untrained_noise_free_retrieval():
    # untrained independent branches score at chance across branches; step I
    # alignment must lift facet-level CMC@1 above that
    from plcd import pipeline
    from plcd.config import RunConfig

    cfg = RunConfig(seed=3, num_landmarks=8, drones_per_landmark=6,
                    grounds_per_landmark=3, channels=8, map_side=6,
                    latent_rank=8, noise_sigma=0.0, embed_dim=16,
                    epochs_senior=8, epochs_junior=2, scales=(1, 2),
                    k_graph=4, k_init=4)
    split = pipeline.make_split(cfg)
    peer = cfg.peer_config()
    ctx = peerlearn.build_context(split)
    g0, d0 = peerlearn._init_pair(ctx, peer, "peerlearn.init.senior")
    untrained = pipeline.evaluate_ground_drone(cfg, split, g0, d0).cmc[1]
    sg, sd, _ = peerlearn.train_senior(split, peer)
    trained = pipeline.evaluate_ground_drone(cfg, split, sg, sd).cmc[1]
    assert trained > untrained
