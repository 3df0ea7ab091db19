import numpy as np
import pytest

from plcd import dataspace as ds
from plcd import encoder as enc
from plcd import patchmodel, peerlearn
from plcd.config import RunConfig
from plcd.seeds import substream

from support import params_digest


def tiny_split(noise=0.2, seed=11):
    cfg = RunConfig(num_landmarks=6, num_sections=6, drones_per_landmark=6,
                    grounds_per_landmark=1, channels=4, map_side=6,
                    latent_rank=8, noise_sigma=noise, train_fraction=0.5,
                    seed=seed)
    return ds.generate_synthetic(cfg)


def tiny_cfg(**kw):
    defaults = dict(embed_dim=8, epochs_patch=2, batch_pairs=2, margin=0.3,
                    seed=9, scales=(1, 2), encoder_tanh=True, lr_body=0.001)
    defaults.update(kw)
    return RunConfig(**defaults)


def make_teacher(split, seed=21):
    rec = split.train[0]
    return enc.init_params("drone", 8, rec.featmap.size, 3,
                           substream(seed, "teacher"), tanh=True)


def test_teacher_untouched_by_training():
    split = tiny_split()
    teacher = make_teacher(split)
    before = params_digest(teacher)
    patchmodel.train_satellite_drone(split, teacher, tiny_cfg())
    assert params_digest(teacher) == before


def test_lambda_zero_is_pure_triplet():
    split = tiny_split()
    teacher = make_teacher(split)
    shared, log = patchmodel.train_satellite_drone(
        split, teacher, tiny_cfg(lambda2=0.0, epochs_patch=1))
    for line in log:
        _, _, triplet, patch, total = line.split()
        assert float(total) == pytest.approx(float(triplet))


def test_training_deterministic():
    split = tiny_split()
    teacher = make_teacher(split)
    a = patchmodel.train_satellite_drone(split, teacher, tiny_cfg())
    b = patchmodel.train_satellite_drone(split, teacher, tiny_cfg())
    assert params_digest(a[0]) == params_digest(b[0])
    assert a[1] == b[1]


def test_patch_loss_decreases_when_trained_alone():
    # overfit sanity check: region-alignment objective only, fixed batch,
    # tiny learning rate => monotone descent
    from plcd import losses, rmac

    split = tiny_split(noise=0.1)
    teacher = make_teacher(split)
    student = enc.init_params("satdrone", 8, split.train[0].featmap.size, 3,
                              substream(33, "student"), tanh=True)
    drones = [r for r in split.train if r.view == ds.DRONE][:4]
    map_shape = drones[0].featmap.shape
    grid = rmac.region_grid(map_shape[1], (1, 2))
    cache = rmac.PooledCache(grid, map_shape)
    pooled = cache.stack(drones)
    teacher_patches = rmac.region_embed(teacher, cache.blocks(teacher), pooled)[:, 1:]
    state = enc.new_sgd_state(student, lr_head=0.0, lr_body=1e-3, momentum=0.0)
    values = []
    for _ in range(20):
        descs = rmac.region_embed(student, cache.blocks(student), pooled)
        patch_values, grads = losses.patch_mse_loss(teacher_patches, descs[:, 1:])
        values.append(patch_values.sum())
        acc = enc.new_grads(student)
        g_descs = np.zeros((len(drones), len(grid) + 1, student.dim))
        g_descs[:, 1:] = grads
        cache.backward(student, pooled, descs, g_descs, acc)
        enc.sgd_step(student, acc, state)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < values[0]


def test_missing_satellite_is_reported():
    split = tiny_split()
    split.train[:] = [r for r in split.train if r.view != ds.SATELLITE]
    teacher = make_teacher(split)
    with pytest.raises(ValueError, match="satellite"):
        patchmodel.train_satellite_drone(split, teacher, tiny_cfg())


def test_trained_shared_encoder_beats_untrained_retrieval():
    from plcd import pipeline

    cfg = RunConfig(seed=3, num_landmarks=10, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=8, map_side=6,
                    latent_rank=8, noise_sigma=0.8, embed_dim=12,
                    epochs_senior=4, epochs_junior=2, epochs_patch=12,
                    scales=(1, 2), k_graph=4, k_init=4)
    split = pipeline.make_split(cfg)
    sg, sd, _ = peerlearn.train_senior(split, cfg)
    jg, jd, _ = peerlearn.train_junior(split, (sg, sd), cfg)
    rec = split.train[0]
    ctx = peerlearn.build_context(split)
    shared0 = enc.init_params("satdrone", 12, rec.featmap.size, ctx.num_classes,
                              substream(cfg.seed, "patchmodel.init"),
                              tanh=True)
    untrained_models = pipeline.TrainedModels(sg, sd, jg, jd, shared0, {})
    untrained = pipeline.evaluate_mode(cfg, split, untrained_models,
                                       "drone-satellite").cmc[1]
    shared, _ = patchmodel.train_satellite_drone(split, jd, cfg)
    trained_models = pipeline.TrainedModels(sg, sd, jg, jd, shared, {})
    trained = pipeline.evaluate_mode(cfg, split, trained_models,
                                     "drone-satellite").cmc[1]
    assert trained > untrained
