import numpy as np
import pytest

from plcd import dataspace as ds


def tiny_cfg(**kw):
    defaults = dict(num_landmarks=4, num_sections=6, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=4, map_side=6,
                    latent_rank=8, noise_sigma=0.0, train_fraction=0.5, seed=7)
    defaults.update(kw)
    return ds.GenConfig(**defaults)


def all_records(split):
    return split.train + split.test


def test_counts_from_config():
    split = ds.generate_synthetic(tiny_cfg(num_landmarks=2, grounds_per_landmark=1))
    recs = all_records(split)
    assert sum(1 for r in recs if r.view == ds.SATELLITE) == 2
    assert sum(1 for r in recs if r.view == ds.DRONE) == 12
    assert sum(1 for r in recs if r.view == ds.GROUND) == 2
    train_ids = {r.landmark for r in split.train}
    test_ids = {r.landmark for r in split.test}
    assert train_ids and test_ids and not (train_ids & test_ids)


def test_record_count_invariants():
    cfg = tiny_cfg(num_landmarks=5, drones_per_landmark=12, grounds_per_landmark=3)
    recs = all_records(ds.generate_synthetic(cfg))
    assert sum(1 for r in recs if r.view == ds.DRONE) == 5 * 12
    assert sum(1 for r in recs if r.view == ds.SATELLITE) == 5
    assert sum(1 for r in recs if r.view == ds.GROUND) == 5 * 3


def test_noise_free_ground_nearest_drone_shares_facet():
    # brute-force cosine over each landmark's drones is the facet oracle
    recs = all_records(ds.generate_synthetic(tiny_cfg()))
    grounds = [r for r in recs if r.view == ds.GROUND]
    assert grounds
    for g in grounds:
        drones = [r for r in recs if r.view == ds.DRONE and r.landmark == g.landmark]
        gv = g.featmap.ravel()
        sims = [float(gv @ d.featmap.ravel()
                      / (np.linalg.norm(gv) * np.linalg.norm(d.featmap.ravel())))
                for d in drones]
        best = drones[int(np.argmax(sims))]
        assert best.section == ds.infer_visible_facet(g, 6)


def test_same_seed_byte_identical():
    cfg = tiny_cfg(noise_sigma=0.3)
    a = ds.generate_synthetic(cfg)
    b = ds.generate_synthetic(cfg)
    text_a = ds.format_records(all_records(a), a.num_landmarks, a.num_sections)
    text_b = ds.format_records(all_records(b), b.num_landmarks, b.num_sections)
    assert text_a == text_b


def test_satellite_exposes_center_only():
    split = ds.generate_synthetic(tiny_cfg())
    center = ds.center_zone(6)
    for r in all_records(split):
        if r.view == ds.SATELLITE:
            assert np.all(r.featmap[:, ~center] == 0.0)
            assert np.any(r.featmap[:, center] != 0.0)


def test_drone_exposes_center_plus_one_wedge():
    split = ds.generate_synthetic(tiny_cfg())
    zones = ds.facet_zones(6, 6)
    center = ds.center_zone(6)
    for r in all_records(split):
        if r.view != ds.DRONE:
            continue
        visible = center | zones[r.section - 1]
        assert np.all(r.featmap[:, ~visible] == 0.0)


def test_zones_partition_grid():
    for side in (4, 6, 7, 12):
        for sections in (2, 3, 6):
            cover = ds.center_zone(side).astype(int)
            for z in ds.facet_zones(sections, side):
                cover += z.astype(int)
            assert np.all(cover == 1), (side, sections)


def test_invalid_config_reports_field():
    with pytest.raises(ValueError, match="num_landmarks"):
        tiny_cfg(num_landmarks=1).validate()
    with pytest.raises(ValueError, match="drones_per_landmark"):
        tiny_cfg(drones_per_landmark=5).validate()
    with pytest.raises(ValueError, match="noise_sigma"):
        tiny_cfg(noise_sigma=-0.1).validate()
    with pytest.raises(ValueError, match="train_fraction"):
        tiny_cfg(train_fraction=1.0).validate()
    with pytest.raises(ValueError, match="basis_density"):
        tiny_cfg(basis_density=0.0).validate()


def test_split_by_identity_fraction_counts():
    split = ds.generate_synthetic(tiny_cfg(num_landmarks=10, train_fraction=0.7))
    assert len({r.landmark for r in split.train}) == 7
    assert len({r.landmark for r in split.test}) == 3


def test_split_two_identities_half():
    split = ds.generate_synthetic(tiny_cfg(num_landmarks=2, train_fraction=0.5))
    assert len({r.landmark for r in split.train}) == 1
    assert len({r.landmark for r in split.test}) == 1


def test_split_disjoint_over_many_seeds():
    base = ds.generate_synthetic(tiny_cfg(num_landmarks=6))
    records = all_records(base)
    for seed in range(100):
        split = ds.split_by_identity(records, 0.5, seed)
        train_ids = {r.landmark for r in split.train}
        test_ids = {r.landmark for r in split.test}
        assert train_ids and test_ids
        assert not (train_ids & test_ids)


def test_split_needs_two_identities():
    split = ds.generate_synthetic(tiny_cfg())
    one = [r for r in all_records(split) if r.landmark == 1]
    with pytest.raises(ValueError, match="identities"):
        ds.split_by_identity(one, 0.5, 0)


def test_serialization_round_trip(tmp_path):
    split = ds.generate_synthetic(tiny_cfg(noise_sigma=0.4))
    path = tmp_path / "data.txt"
    ds.write_records(path, split.train, split.num_landmarks, split.num_sections)
    records, num_landmarks, num_sections = ds.read_records(path)
    assert num_landmarks == split.num_landmarks
    assert num_sections == split.num_sections
    assert len(records) == len(split.train)
    for a, b in zip(records, split.train):
        assert (a.id, a.view, a.landmark, a.section) == (b.id, b.view, b.landmark, b.section)
        assert np.array_equal(a.featmap, b.featmap)
    # byte identity after a save/load/save cycle
    second = tmp_path / "again.txt"
    ds.write_records(second, records, num_landmarks, num_sections)
    assert path.read_bytes() == second.read_bytes()


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match="plcd-data"):
        ds.read_records(path)
    path.write_text("#plcd-data v1 3\n")
    with pytest.raises(ValueError, match="header needs"):
        ds.read_records(path)
    path.write_text("#plcd-data v1 1 2 6\n5 D 1\n")
    with pytest.raises(ValueError, match="truncated"):
        ds.read_records(path)


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_read_rejects_non_finite_values(tmp_path, bad):
    split = ds.generate_synthetic(tiny_cfg())
    path = tmp_path / "data.txt"
    ds.write_records(path, split.train, split.num_landmarks, split.num_sections)
    lines = path.read_text().splitlines()
    tok = lines[2].split()
    tok[9] = bad
    lines[2] = " ".join(tok)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"data\.txt: record {tok[0]} has a non-finite"):
        ds.read_records(path)


def test_infer_facet_with_noise():
    split = ds.generate_synthetic(tiny_cfg(noise_sigma=0.3, num_landmarks=6))
    zones = ds.facet_zones(6, 6)
    center = ds.center_zone(6)
    hits = 0
    total = 0
    for r in all_records(split):
        if r.view != ds.GROUND:
            continue
        # ground truth: the wedge whose cells are non-noise (reconstruct from
        # which wedge has the dominant energy in the clean part is the
        # inference itself, so check self-consistency across noise draws)
        total += 1
        hits += ds.infer_visible_facet(r, 6) in range(1, 7)
    assert total and hits == total


def test_record_section_rules():
    with pytest.raises(ValueError, match="section"):
        ds.ImageRecord(1, ds.GROUND, 1, 2, np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="section"):
        ds.ImageRecord(1, ds.DRONE, 1, 0, np.zeros((1, 2, 2)))


EDGE_VALUES = [-0.0, 5e-324, 1e16, 0.1, -2.5e-308, 1.0 / 3.0]


def test_text_formats_keep_per_value_repr_and_read_back_bit_exact(tmp_path):
    from plcd import diffusion, encoder

    def per_value(arr):  # the per-value formatting the bulk join replaced
        return " ".join(repr(float(v)) for v in np.ravel(arr))

    fm = np.array(EDGE_VALUES).reshape(1, 2, 3)
    record = ds.ImageRecord(4, "D", 1, 2, fm)
    text = ds.format_records([record], 1, 6)
    assert text.splitlines()[1] == f"4 D 1 2 1 2 3 {per_value(fm)}"
    ds.write_records(tmp_path / "data.txt", [record], 1, 6)
    [back], _, _ = ds.read_records(tmp_path / "data.txt")
    assert back.featmap.tobytes() == fm.tobytes()

    params = encoder.EncoderParams("drone", weight=fm.reshape(1, 6), bias=np.array([-0.0]),
                                   classifier_weight=np.array([[5e-324], [1e16]]),
                                   classifier_bias=np.array([0.1, -0.0]))
    arrays = (params.weight, params.bias, params.classifier_weight, params.classifier_bias)
    assert encoder.format_params(params).splitlines()[1:] == [per_value(a) for a in arrays]
    encoder.save_params(tmp_path / "enc.txt", params)
    loaded = encoder.load_params(tmp_path / "enc.txt")
    assert [a.tobytes() for a in (loaded.weight, loaded.bias, loaded.classifier_weight,
                                  loaded.classifier_bias)] == [a.tobytes() for a in arrays]

    vec = np.array(EDGE_VALUES)
    text = diffusion.format_embeddings([(3, "S", 2, vec)])
    assert text.splitlines()[1] == f"3 S 2 {per_value(vec)}"
    diffusion.write_embeddings(tmp_path / "emb.txt", [(3, "S", 2, vec)])
    [(_, _, _, loaded_vec)] = diffusion.read_embeddings(tmp_path / "emb.txt")
    assert loaded_vec.tobytes() == vec.tobytes()


def test_read_rejects_extra_values(tmp_path):
    # a 1x1x2 record carrying four values once loaded as its first two
    path = tmp_path / "data.txt"
    path.write_text("#plcd-data v1 1 1 6\n4 D 1 2 1 1 2 0.5 0.25 0.125 1.0\n")
    with pytest.raises(ValueError, match=r"data\.txt: record 4 has 4 values, needs 2"):
        ds.read_records(path)


@pytest.mark.parametrize("token", ["1.0x", "0x10", ""])
def test_read_rejects_unparsable_values(tmp_path, token):
    fm = np.ones((1, 1, 2))
    path = tmp_path / "data.txt"
    ds.write_records(path, [ds.ImageRecord(4, "D", 1, 2, fm)], 1, 6)
    path.write_text(path.read_text().replace("1.0 1.0", f"1.0 {token}".rstrip()))
    with pytest.raises(ValueError):
        ds.read_records(path)
