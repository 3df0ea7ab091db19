import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plcd import dataspace as ds
from plcd.config import RunConfig
from support import read_embeddings


def tiny_cfg(**kw):
    defaults = dict(num_landmarks=4, num_sections=6, drones_per_landmark=6,
                    grounds_per_landmark=2, channels=4, map_side=6,
                    latent_rank=8, noise_sigma=0.0, train_fraction=0.5, seed=7)
    defaults.update(kw)
    return RunConfig(**defaults)


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


def test_same_seed_byte_identical(tmp_path):
    cfg = tiny_cfg(noise_sigma=0.3)
    a = ds.generate_synthetic(cfg)
    b = ds.generate_synthetic(cfg)
    ds.write_records(tmp_path / "a.npz", all_records(a), a.num_landmarks, a.num_sections)
    ds.write_records(tmp_path / "b.npz", all_records(b), b.num_landmarks, b.num_sections)
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


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
        split = ds.split_by_identity(records, 0.5, seed, base.num_sections)
        train_ids = {r.landmark for r in split.train}
        test_ids = {r.landmark for r in split.test}
        assert train_ids and test_ids
        assert not (train_ids & test_ids)


def test_serialization_round_trip(tmp_path, monkeypatch):
    split = ds.generate_synthetic(tiny_cfg(noise_sigma=0.4))
    path = tmp_path / "data.npz"
    ds.write_records(path, split.train, split.num_landmarks, split.num_sections)
    records, num_landmarks, num_sections = ds.read_records(path)
    assert num_landmarks == split.num_landmarks
    assert num_sections == split.num_sections
    assert len(records) == len(split.train)
    for a, b in zip(records, split.train):
        assert (a.id, a.view, a.landmark, a.section) == (b.id, b.view, b.landmark, b.section)
        assert np.array_equal(a.featmap, b.featmap)
    # byte identity after a save/load/save cycle, even a day later
    second = tmp_path / "again.npz"
    later = time.time() + 86400
    monkeypatch.setattr(time, "time", lambda: later)
    ds.write_records(second, records, num_landmarks, num_sections)
    monkeypatch.undo()
    assert path.read_bytes() == second.read_bytes()
    # the archive opens with plain numpy
    with np.load(path) as archive:
        assert sorted(archive.files) == ["counts", "format", "ids", "landmarks",
                                         "sections", "values", "views"]
        assert str(archive["format"]) == ds.DATA_FORMAT
        assert archive["values"].shape == (len(split.train), 4, 6, 6)


def write_members(path, **changes):
    """A tiny one-record split written to ``path`` with members replaced
    (or, given None, dropped) by ``np.savez``."""
    ds.write_records(path, [ds.ImageRecord(4, "D", 1, 2, np.ones((1, 1, 2)))], 1, 6)
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays.update(changes)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
    return path


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_text("#plcd-data v1 1 2 6\n5 D 1\n")  # the retired text format
    with pytest.raises(ValueError, match=r"bad\.npz: not a readable 'plcd-data v2' file"):
        ds.read_records(path)
    write_members(path, format=np.array("plcd-enc v2"))
    with pytest.raises(ValueError, match=r"bad\.npz: .*format tag is 'plcd-enc v2'"):
        ds.read_records(path)
    write_members(path, format=None)
    with pytest.raises(ValueError, match=r"bad\.npz: .*format tag is None"):
        ds.read_records(path)
    write_members(path, counts=np.array([1, 6, 3]))
    with pytest.raises(ValueError, match=r"bad\.npz: counts needs a landmark and a section"):
        ds.read_records(path)


@pytest.mark.parametrize("case, changes, message", [
    ("missing-member", {"sections": None}, "no member sections"),
    ("object-array", {"views": np.array(["D"], dtype=object)}, "Object arrays cannot"),
    ("short-column", {"landmarks": np.array([], dtype=np.int64)},
     "hold 1, 1, 0, 1 entries for 1 value maps"),
    ("flat-values", {"values": np.ones(2)}, "member values is float64 of shape"),
    ("integer-ids", {"ids": np.array([4.0])}, "member ids is float64 of shape"),
])
def test_read_rejects_malformed_members(tmp_path, case, changes, message):
    path = write_members(tmp_path / f"{case}.npz", **changes)
    with pytest.raises(ValueError, match=rf"{case}\.npz: .*{message}"):
        ds.read_records(path)


def test_read_rejects_a_repeated_record_id(tmp_path):
    # two queries of one id would share a ranking file, and training keys
    # pooled rows by id
    path = tmp_path / "data.npz"
    ds.write_records(path, [ds.ImageRecord(4, "G", 1, 0, np.ones((1, 1, 2))),
                            ds.ImageRecord(4, "G", 1, 0, np.zeros((1, 1, 2)))], 1, 6)
    with pytest.raises(ValueError, match=r"data\.npz: record id 4 appears more than once"):
        ds.read_records(path)


@pytest.mark.parametrize("cut", ["empty", "header", "member", "method", "directory"])
def test_read_rejects_truncated_and_damaged_files(tmp_path, cut):
    path = tmp_path / "data.npz"
    ds.write_records(path, [ds.ImageRecord(4, "D", 1, 2, np.ones((1, 1, 2)))], 1, 6)
    blob = bytearray(path.read_bytes())
    if cut == "member":  # flip one byte of the last value; only the CRC notices
        at = blob.rindex(np.float64(1.0).tobytes())
        blob[at] ^= 1
    elif cut == "method":  # an unknown compression method (zipfile raises NotImplementedError)
        at = blob.index(b"PK\x01\x02") + 10
        blob[at:at + 2] = (99).to_bytes(2, "little")
    else:
        blob = blob[:{"empty": 0, "header": 2, "directory": len(blob) - 30}[cut]]
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"data\.npz: not a readable 'plcd-data v2' file"):
        ds.read_records(path)


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_read_rejects_non_finite_values(tmp_path, bad):
    split = ds.generate_synthetic(tiny_cfg())
    path = tmp_path / "data.npz"
    ds.write_records(path, split.train, split.num_landmarks, split.num_sections)
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays["values"][1, 0, 1, 2] = float(bad)
    np.savez(path, **arrays)
    rid = arrays["ids"][1]
    with pytest.raises(ValueError, match=rf"data\.npz: record {rid} has a non-finite"):
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

# finite float64 values, weighted towards the ones a lossy encoding would bend
edge_floats = st.one_of(
    st.sampled_from(EDGE_VALUES + [1e308, -1e308, 2.2250738585072014e-308]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


@st.composite
def record_sets(draw):
    n, c, h, w = (draw(st.integers(1, 4)) for _ in range(4))
    values = draw(hnp.arrays(np.float64, (n, c, h, w), elements=edge_floats))
    ids = draw(st.lists(st.integers(1, 10**12), min_size=n, max_size=n, unique=True))
    records = []
    for i in range(n):
        view = draw(st.sampled_from(ds.VIEWS))
        section = draw(st.integers(1, 6)) if view == ds.DRONE else 0
        records.append(ds.ImageRecord(ids[i], view, draw(st.integers(1, 99)), section,
                                      values[i]))
    return records, draw(st.integers(1, 99)), draw(st.integers(2, 6))


@settings(max_examples=60, deadline=None)
@given(record_sets())
def test_records_round_trip_bit_exact_and_rewrite_byte_identical(case):
    records, num_landmarks, num_sections = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.npz", Path(tmp) / "b.npz"
        ds.write_records(first, records, num_landmarks, num_sections)
        back, landmarks, sections = ds.read_records(first)
        assert (landmarks, sections) == (num_landmarks, num_sections)
        assert [(r.id, r.view, r.landmark, r.section) for r in back] == \
            [(r.id, r.view, r.landmark, r.section) for r in records]
        for a, b in zip(back, records):
            assert a.featmap.tobytes() == b.featmap.tobytes()
        ds.write_records(second, back, landmarks, sections)
        assert first.read_bytes() == second.read_bytes()


def test_draw_per_section_takes_one_drone_per_section_in_order():
    records = [ds.ImageRecord(i, ds.DRONE, 1 + i % 2, 1 + i % 3, np.zeros((1, 1, 1)))
               for i in range(12)] + [ds.ImageRecord(12, ds.GROUND, 3, 0, np.zeros((1, 1, 1)))]
    drones, sections = ds.drones_by_section(records)
    assert sorted(drones) == [1, 2] and sections == [1, 2, 3]
    assert [r.id for r in drones[2][3]] == [5, 11]  # record order
    batch = ds.draw_per_section(drones, sections, 2, np.random.default_rng(5))
    assert [r.section for r in batch] == sections and {r.landmark for r in batch} == {2}
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="landmark 3 has no drone records"):
        ds.draw_per_section(drones, sections, 3, rng)
    del drones[1][2]
    with pytest.raises(ValueError, match="landmark 1 has no drone in section 2"):
        ds.draw_per_section(drones, sections, 1, rng)


def test_embedding_text_keeps_per_value_repr_and_reads_back_bit_exact(tmp_path):
    def per_value(arr):  # the per-value formatting the bulk join replaced
        return " ".join(repr(float(v)) for v in np.ravel(arr))

    vec = np.array(EDGE_VALUES)
    ds.write_embeddings(tmp_path / "emb.txt", [(3, "S", 2, vec)])
    text = (tmp_path / "emb.txt").read_text(encoding="utf-8")
    assert text.splitlines()[1] == f"3 S 2 {per_value(vec)}"
    [(_, _, _, loaded_vec)] = read_embeddings(tmp_path / "emb.txt")
    assert loaded_vec.tobytes() == vec.tobytes()


def test_read_rejects_extra_values(tmp_path):
    # a one-record split whose value stack carries a second map
    path = write_members(tmp_path / "data.npz", values=np.ones((2, 1, 1, 2)))
    with pytest.raises(ValueError, match=r"data\.npz: columns ids, views, landmarks, "
                                         r"sections hold 1, 1, 1, 1 entries for 2 value maps"):
        ds.read_records(path)


@pytest.mark.parametrize("token", ["1.0x", "0x10", ""])
def test_read_rejects_unparsable_values(tmp_path, token):
    # values stored as text rather than float64
    path = write_members(tmp_path / "data.npz", values=np.full((1, 1, 1, 2), token))
    with pytest.raises(ValueError, match=r"data\.npz: member values is <U\d of shape "
                                         r"\(1, 1, 1, 2\), needs 4 dimensions of kind 'f'"):
        ds.read_records(path)
