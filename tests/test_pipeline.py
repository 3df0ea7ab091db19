import numpy as np
import pytest

from plcd import evalkit, pipeline
from plcd.config import RunConfig


@pytest.fixture(scope="module")
def tiny():
    cfg = RunConfig(seed=5, num_landmarks=4, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=4, map_side=6,
                    latent_rank=8, noise_sigma=0.3, embed_dim=8,
                    epochs_senior=2, epochs_junior=2, epochs_patch=2,
                    scales=(1, 2), k_graph=4, k_init=4)
    split = pipeline.make_split(cfg)
    models = pipeline.train_all(cfg, split)
    return cfg, split, models


def test_modes_produce_full_rankings(tiny):
    cfg, split, models = tiny
    sats = [r for r in split.test if r.view == "S"]
    grounds = [r for r in split.test if r.view == "G"]
    for mode in ("diffusion", "chain", "direct-cosine"):
        rankings = pipeline.ground_satellite_rankings(cfg, split, models, mode)
        assert len(rankings) == len(grounds)
        for r in rankings:
            assert sorted(r.gallery_ids) == sorted(s.id for s in sats)


def test_diffusion_index_reuse_matches_per_query_build(tiny):
    cfg, split, models = tiny
    index = pipeline.build_diffusion_index(cfg, split, models)
    cached = pipeline.ground_satellite_rankings(cfg, split, models, "diffusion",
                                                index=index)
    rebuilt = pipeline.ground_satellite_rankings(cfg, split, models, "diffusion")
    for a, b in zip(cached, rebuilt):
        assert a.gallery_ids == b.gallery_ids
        assert np.allclose(a.scores, b.scores)


def test_query_path_never_reads_drone_landmarks(tiny):
    # relabeling every drone's landmark must not change diffusion rankings
    cfg, split, models = tiny
    base = pipeline.ground_satellite_rankings(cfg, split, models, "diffusion")
    import copy
    from plcd.dataspace import DatasetSplit, ImageRecord
    scrambled_test = [
        ImageRecord(r.id, r.view, 999 if r.view == "D" else r.landmark,
                    r.section, r.featmap)
        for r in split.test
    ]
    scrambled = DatasetSplit(train=split.train, test=scrambled_test,
                             num_landmarks=split.num_landmarks,
                             num_sections=split.num_sections)
    other = pipeline.ground_satellite_rankings(cfg, scrambled, models, "diffusion")
    for a, b in zip(base, other):
        assert a.gallery_ids == b.gallery_ids
        assert np.allclose(a.scores, b.scores)


def test_chain_requires_drones(tiny):
    cfg, split, models = tiny
    with pytest.raises(ValueError, match="drone"):
        pipeline.ground_satellite_rankings(cfg, split, models, "chain",
                                           use_drones=False)


def test_relevance_builders(tiny):
    cfg, split, models = tiny
    rel = pipeline.relevance_for(split.test, "ground-satellite", cfg,
                                 split.num_sections)
    grounds = [r for r in split.test if r.view == "G"]
    sats = {r.landmark: r.id for r in split.test if r.view == "S"}
    for g in grounds:
        assert rel[g.id] == {sats[g.landmark]}
    facet_rel = pipeline.relevance_for(split.test, "ground-drone", cfg,
                                       split.num_sections)
    landmark_rel = pipeline.relevance_for(
        split.test, "ground-drone",
        RunConfig(ground_drone_relevance="landmark"), split.num_sections)
    for g in grounds:
        assert facet_rel[g.id] <= landmark_rel[g.id]


def test_peer_steps_suite_rows_in_order(tiny):
    cfg, split, models = tiny
    result = evalkit.run_ablation("peer-steps", cfg, split=split, models=models)
    names = [name for name, _ in result.rows]
    assert names == ["two-branch", "two-branch+S", "two-branch+S+J",
                     "two-branch+S+J+B"]
    assert result.signs  # pairwise comparison signs emitted
    csv = result.to_csv()
    assert csv.splitlines()[0].split(",")[0].strip() == "variant"


def test_with_without_drone_suite(tiny):
    cfg, split, models = tiny
    result = evalkit.run_ablation("with-without-drone", cfg, split=split,
                                  models=models)
    names = [name for name, _ in result.rows]
    assert names == ["diffusion+drones", "chain+drones", "direct-cosine-no-drones"]


def test_alpha_sweep_rows(tiny):
    cfg, split, models = tiny
    result = evalkit.run_ablation("alpha-sweep", cfg, split=split, models=models)
    assert [name for name, _ in result.rows] == \
        [f"alpha={a}" for a in cfg.alpha_sweep]


def test_alpha_sweep_shares_one_index(tiny, monkeypatch):
    cfg, split, models = tiny
    fresh = [(f"alpha={a}", pipeline.evaluate_mode(cfg, split, models, "diffusion",
                                                   alpha=a).to_json_dict())
             for a in cfg.alpha_sweep]
    builds = []
    build = pipeline.build_diffusion_index
    monkeypatch.setattr(pipeline, "build_diffusion_index",
                        lambda *args, **kw: builds.append(1) or build(*args, **kw))
    result = evalkit.run_ablation("alpha-sweep", cfg, split=split, models=models)
    assert len(builds) == 1
    assert [(name, report.to_json_dict()) for name, report in result.rows] == fresh


def test_tau_sweep_values(tiny):
    cfg, split, _ = tiny
    result = evalkit.run_ablation("tau-sweep", cfg, split=split)
    assert [name for name, _ in result.rows] == \
        ["tau=2.0", "tau=0.5", "tau=0.1", "tau=0.05", "tau=0.01"]


def test_one_vs_two_branch_rows(tiny):
    cfg, split, models = tiny
    result = evalkit.run_ablation("one-vs-two-branch", cfg, split=split,
                                  models=models)
    names = [name for name, _ in result.rows]
    assert len(names) == 6
    assert any(n.startswith("one-model:") for n in names)
    assert any(n.startswith("two-branch:") for n in names)


def test_peer_iteration_hook_swaps_senior():
    from dataclasses import replace
    cfg = RunConfig(seed=5, num_landmarks=4, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=4, map_side=6,
                    latent_rank=8, noise_sigma=0.3, embed_dim=8,
                    epochs_senior=1, epochs_junior=1, scales=(1, 2))
    split = pipeline.make_split(cfg)
    one_round = pipeline.train_ground_drone(cfg, split)
    two_rounds = pipeline.train_ground_drone(replace(cfg, peer_iterations=2), split)
    from plcd.encoder import params_digest
    # the swapped round continues from round one's junior, so juniors differ
    assert params_digest(one_round[1][0]) != params_digest(two_rounds[1][0])
    # and the second round's senior is exactly round one's junior
    assert params_digest(two_rounds[0][0]) == params_digest(one_round[1][0])
    assert params_digest(two_rounds[0][1]) == params_digest(one_round[1][1])
