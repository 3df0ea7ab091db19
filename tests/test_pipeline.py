import threading
from dataclasses import replace

import numpy as np
import pytest

from plcd import diffusion as diff
from plcd import encoder as enc
from plcd import evalkit, peerlearn, pipeline, rmac
from plcd.config import RunConfig
from plcd.dataspace import DRONE, GROUND, SATELLITE, ImageRecord
from plcd.ranking import RankingList


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


@pytest.mark.parametrize("change", [{"alpha": 0.5}, {"closed_form": False}, {"k_init": 3},
                                    {"gamma": 1.0}], ids=lambda c: next(iter(c)))
def test_prebuilt_index_walks_as_the_call_config_says(tiny, change):
    cfg, split, models = tiny
    index = pipeline.build_diffusion_index(cfg, split, models)
    walk = replace(cfg, **change)
    on_index = pipeline.ground_satellite_rankings(walk, split, models, "diffusion",
                                                  index=index)
    fresh = pipeline.ground_satellite_rankings(walk, split, models, "diffusion")
    assert [(r.gallery_ids, np.array(r.scores).tobytes()) for r in on_index] == \
        [(r.gallery_ids, np.array(r.scores).tobytes()) for r in fresh]


def test_prebuilt_index_refuses_another_k_graph(tiny):
    cfg, split, models = tiny
    index = pipeline.build_diffusion_index(cfg, split, models)
    with pytest.raises(ValueError, match=r"k_graph=5 differs from the index's k_graph=4"):
        pipeline.ground_satellite_rankings(replace(cfg, k_graph=5), split, models,
                                           "diffusion", index=index)


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


# ---------------------------------------------------------------------------
# per-record reference retrieval: one forward, pooling and score per record
# or pair, the way retrieval ran before it was stacked
# ---------------------------------------------------------------------------

def _forward(params, record):
    pre = params.weight @ record.featmap.ravel() + params.bias
    return np.tanh(pre) if params.tanh else pre


def _unit(v):
    norm = float(np.linalg.norm(v))
    return v if norm < 1e-12 else v / norm


def _region_descs(cfg, params, record):
    grid = rmac.config_grid(cfg, record.featmap.shape)
    cache = rmac.PooledCache(grid, record.featmap.shape)
    return rmac.region_embed(params, cache.blocks(params), cache.stack([record]))


def _drone_feature(cfg, params, record):
    return rmac.aggregate_feature(_region_descs(cfg, params, record))[0][0]


def _best_region_rows(cfg, params, record):
    descs = _region_descs(cfg, params, record)
    rows = [rmac.aggregate_feature(descs)[0][0]] + list(descs[0, 1:])
    return [_unit(r) for r in rows]


def _views(split, view):
    return [r for r in split.test if r.view == view]


def reference_scores(cfg, split, models, mode):
    """{query id: {gallery id: score}} of one mode, record by record."""
    grounds, drones, sats = (_views(split, v) for v in ("G", "D", "S"))
    jg, jd, shared = models.junior_ground, models.junior_drone, models.shared
    if mode.startswith("diffusion"):
        diff_cfg = replace(cfg, closed_form=mode == "diffusion-closed")
        index = diff.build_index(
            [_forward(shared, d) for d in drones], [_forward(shared, s) for s in sats],
            [_drone_feature(cfg, jd, d) for d in drones], [s.id for s in sats], diff_cfg)
        out = {}
        for g in grounds:
            (r,) = diff.query(index, diff_cfg, [g.id], [_forward(jg, g)])
            out[g.id] = dict(zip(r.gallery_ids, r.scores))
        return out
    if mode == "drone-satellite":
        queries = [(d.id, _unit(_forward(shared, d))) for d in drones]
    else:
        queries = [(g.id, _unit(_forward(jg, g))) for g in grounds]
    if mode.startswith("ground-drone"):
        if mode == "ground-drone-best-region":
            gallery = [(d.id, _best_region_rows(cfg, jd, d)) for d in drones]
            return {qid: {gid: max(float(row @ q) for row in rows) for gid, rows in gallery}
                    for qid, q in queries}
        gallery = [(d.id, _unit(_drone_feature(cfg, jd, d))) for d in drones]
    else:
        gallery = [(s.id, _unit(_forward(shared, s))) for s in sats]
    if mode == "chain":
        drone_gd = [_unit(_drone_feature(cfg, jd, d)) for d in drones]
        hopped = []
        for qid, q in queries:
            sims = [float(d @ q) for d in drone_gd]
            best = min(range(len(drones)), key=lambda i: (-sims[i], drones[i].id))
            hopped.append((qid, _unit(_forward(shared, drones[best]))))
        queries = hopped
    return {qid: {gid: float(g @ q) for gid, g in gallery} for qid, q in queries}


def stacked_rankings(cfg, split, models, mode):
    if mode.startswith("diffusion"):
        return pipeline.ground_satellite_rankings(
            replace(cfg, closed_form=mode == "diffusion-closed"), split, models, "diffusion")
    if mode.startswith("ground-drone"):
        return pipeline.ground_drone_rankings(cfg, split, models.junior_ground,
                                              models.junior_drone,
                                              best_region=mode.endswith("best-region"))
    if mode == "drone-satellite":
        return pipeline.drone_satellite_rankings(cfg, split, models.shared)
    return pipeline.ground_satellite_rankings(cfg, split, models, mode)


def assert_orders_match(rankings, reference, rel=1e-12):
    """Every stacked order sorts the reference scores, except among scores
    within ``rel`` of the row's largest magnitude; the scores agree to that
    tolerance too."""
    assert sorted(r.query_id for r in rankings) == sorted(reference)
    for r in rankings:
        ref = reference[r.query_id]
        tol = rel * max(abs(v) for v in ref.values())
        assert sorted(r.gallery_ids) == sorted(ref)
        for gid, score in zip(r.gallery_ids, r.scores):
            assert abs(score - ref[gid]) <= tol
        for a, b in zip(r.gallery_ids, r.gallery_ids[1:]):
            assert ref[b] < ref[a] + tol or (ref[b] == ref[a] and b > a)


@pytest.fixture(scope="module")
def untrained():
    """A larger test split on seeded, untrained encoders, with one drone
    copied under a new id: exact ties between records."""
    cfg = RunConfig(seed=9, num_landmarks=16, drones_per_landmark=6,
                    grounds_per_landmark=3, channels=6, map_side=6, latent_rank=8,
                    noise_sigma=0.3, embed_dim=16, scales=(1, 2, 3), k_graph=5, k_init=5)
    split = pipeline.make_split(cfg)
    drone = next(r for r in split.test if r.view == "D")
    copy = type(drone)(max(r.id for r in split.test) + 1, drone.view, drone.landmark,
                       drone.section, drone.featmap)
    split = replace(split, test=split.test + [copy])
    rng = np.random.default_rng(3)
    ground, drone_p, shared = (enc.init_params(role, cfg.embed_dim, drone.featmap.size, 8,
                                               rng, tanh=False)
                               for role in ("ground", "drone", "satdrone"))
    models = pipeline.TrainedModels(senior_ground=ground, senior_drone=drone_p,
                                    junior_ground=ground, junior_drone=drone_p,
                                    shared=shared, logs={})
    return cfg, split, models


@pytest.mark.parametrize("mode", ["diffusion-closed", "diffusion-iterative", "chain",
                                  "direct-cosine", "ground-drone",
                                  "ground-drone-best-region", "drone-satellite"])
@pytest.mark.parametrize("case", ["tiny", "untrained"])
def test_stacked_modes_match_per_record_reference(request, case, mode):
    cfg, split, models = request.getfixturevalue(case)
    rankings = stacked_rankings(cfg, split, models, mode)
    assert_orders_match(rankings, reference_scores(cfg, split, models, mode))


def serial_index(cfg, split, models):
    """``build_diffusion_index`` composed on one thread, its parts in order."""
    drones = [r for r in split.test if r.view == DRONE]
    sats = [r for r in split.test if r.view == SATELLITE]
    return diff.build_index(
        drone_sd_embs=enc.embed_records(models.shared, drones),
        sat_sd_embs=enc.embed_records(models.shared, sats),
        drone_gd_embs=pipeline.drone_features(cfg, models.junior_drone, drones),
        sat_ids=[s.id for s in sats], cfg=cfg)


@pytest.mark.parametrize("case", ["tiny", "untrained"])
def test_diffusion_index_matches_the_serial_build(request, monkeypatch, case):
    cfg, split, models = request.getfixturevalue(case)
    if case == "untrained":
        # blocks of 8 drones, the last full one followed by a lone drone
        monkeypatch.setattr(rmac, "RETRIEVAL_BLOCK", 8)
        drones = [r.id for r in split.test if r.view == DRONE]
        dropped = set(drones[8 * ((len(drones) - 1) // 8) + 1:])
        split = replace(split, test=[r for r in split.test if r.id not in dropped])
        assert sum(r.view == DRONE for r in split.test) % 8 == 1
    threads = threading.active_count()
    index = pipeline.build_diffusion_index(cfg, split, models)
    assert threading.active_count() == threads
    serial = serial_index(cfg, split, models)
    assert index.matrix.tobytes() == serial.matrix.tobytes()
    assert index.drone_gd.tobytes() == serial.drone_gd.tobytes()
    assert (index.sat_ids, index.k_graph, index.operators) == \
        (serial.sat_ids, serial.k_graph, serial.operators)


@pytest.mark.parametrize("encoder", ["junior_drone", "shared"])
def test_diffusion_index_failure_reaches_the_caller(tiny, encoder):
    # a mismatched junior drone fails on the worker thread, a mismatched
    # shared encoder on the calling one; either way the serial message
    # reaches the caller and no thread is left behind
    cfg, split, models = tiny
    other = enc.init_params(getattr(models, encoder).role, cfg.embed_dim,
                            getattr(models, encoder).input_dim + 4, 8,
                            np.random.default_rng(0), tanh=False)
    models = replace(models, **{encoder: other})
    with pytest.raises(ValueError) as serial:
        serial_index(cfg, split, models)
    threads = threading.active_count()
    with pytest.raises(ValueError) as threaded:
        pipeline.build_diffusion_index(cfg, split, models)
    assert threading.active_count() == threads
    assert str(threaded.value) == str(serial.value)


def test_chain_requires_drones(tiny):
    cfg, split, models = tiny
    no_drones = replace(split, test=[r for r in split.test if r.view != DRONE])
    for mode in ("chain", "diffusion"):
        with pytest.raises(ValueError, match="no drone reference records"):
            pipeline.ground_satellite_rankings(cfg, no_drones, models, mode)


# each mode's direct call and the task it is scored on, spelled out here so
# that the tables are checked against an independent statement of them
DIRECT = {
    "diffusion": ("ground-satellite", lambda cfg, split, m:
                  pipeline.ground_satellite_rankings(cfg, split, m, "diffusion")),
    "chain": ("ground-satellite", lambda cfg, split, m:
              pipeline.ground_satellite_rankings(cfg, split, m, "chain")),
    "direct-cosine": ("ground-satellite", lambda cfg, split, m:
                      pipeline.ground_satellite_rankings(cfg, split, m, "direct-cosine")),
    "ground-drone": ("ground-drone", lambda cfg, split, m:
                     pipeline.ground_drone_rankings(cfg, split, m.junior_ground,
                                                    m.junior_drone)),
    "drone-satellite": ("drone-satellite", lambda cfg, split, m:
                        pipeline.drone_satellite_rankings(cfg, split, m.shared)),
}


def test_tables_name_every_mode_and_task():
    assert list(pipeline.MODES) == list(DIRECT)
    assert pipeline.MODES == {mode: task for mode, (task, _) in DIRECT.items()}
    assert pipeline.TASKS == {"ground-drone": (GROUND, DRONE),
                              "ground-satellite": (GROUND, SATELLITE),
                              "drone-satellite": (DRONE, SATELLITE)}


@pytest.mark.parametrize("mode", list(DIRECT))
def test_evaluate_mode_scores_the_direct_rankings(tiny, mode):
    cfg, split, models = tiny
    task, direct = DIRECT[mode]
    expected = pipeline.task_report(cfg, split.test, direct(cfg, split, models), task)
    assert (pipeline.evaluate_mode(cfg, split, models, mode).to_json_dict()
            == expected.to_json_dict())


def test_unknown_mode_or_task_names_every_valid_one(tiny):
    cfg, split, models = tiny
    for call, valid in (
            (lambda: pipeline.rankings(cfg, split, models, "bogus"), pipeline.MODES),
            (lambda: pipeline.evaluate_mode(cfg, split, models, "bogus"), pipeline.MODES),
            (lambda: pipeline.relevance_for(split.test, "bogus", cfg, split.num_sections),
             pipeline.TASKS),
            (lambda: pipeline.task_report(cfg, split.test, [], "bogus"),
             pipeline.TASKS)):
        with pytest.raises(ValueError, match="bogus") as err:
            call()
        assert all(name in str(err.value) for name in valid), str(err.value)


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


def test_alpha_sweep_rows(tiny):
    cfg, split, models = tiny
    result = evalkit.run_ablation("alpha-sweep", cfg, split=split, models=models)
    assert [name for name, _ in result.rows] == \
        [f"alpha={a}" for a in cfg.alpha_sweep]


def test_alpha_sweep_shares_one_index(tiny, monkeypatch):
    cfg, split, models = tiny
    fresh = [(f"alpha={a}", pipeline.evaluate_mode(replace(cfg, alpha=a), split, models,
                                                   "diffusion").to_json_dict())
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


def test_one_model_trains_its_junior_with_shared_branches(monkeypatch):
    cfg = RunConfig(seed=5, num_landmarks=4, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=4, map_side=6,
                    latent_rank=8, embed_dim=8, epochs_senior=0, epochs_junior=0,
                    epochs_patch=0, scales=(1, 2))
    juniors = []
    train_junior = peerlearn.train_junior

    def kept(*args, **kwargs):
        result = train_junior(*args, **kwargs)
        juniors.append(result[:2])
        return result

    monkeypatch.setattr(peerlearn, "train_junior", kept)
    pipeline.train_one_model(cfg, pipeline.make_split(cfg))
    [(ground, drone)] = juniors  # one Step II round
    assert ground is drone


def _record(rid, view, landmark):
    return ImageRecord(id=rid, view=view, landmark=landmark, section=0,
                       featmap=np.zeros((1, 1, 1)))


def test_cmc_counts_each_query_once():
    # landmark 0 has three queries (one hit at rank 1), landmark 1 one (a hit):
    # per query that is 2 of 4, where landmark means would give 2/3
    records = ([_record(100, SATELLITE, 0), _record(101, SATELLITE, 1)]
               + [_record(q, GROUND, 0) for q in (1, 2, 3)] + [_record(4, GROUND, 1)])
    rankings = [RankingList(1, [100, 101], [0.9, 0.1]),
                RankingList(2, [101, 100], [0.9, 0.1]),
                RankingList(3, [101, 100], [0.9, 0.1]),
                RankingList(4, [101, 100], [0.9, 0.1])]
    per_query = pipeline.task_report(RunConfig(), records, rankings, "ground-satellite")
    assert per_query.cmc[1] == 2 / 4
