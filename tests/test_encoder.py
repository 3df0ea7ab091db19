import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from plcd import encoder as enc
from plcd import rmac
from plcd.dataspace import DRONE, ImageRecord
from plcd.seeds import substream

from harness import check_gradients
from support import params_digest


def make_record(rng, shape=(2, 3, 3), rid=1):
    return ImageRecord(rid, DRONE, 1, 1, rng.standard_normal(shape))


def make_params(dim=4, input_dim=18, classes=3, seed=0, tanh=False):
    return enc.init_params("drone", dim, input_dim, classes,
                           substream(seed, "test.params"), tanh=tanh)


def reference_forward(params, record):
    """Whole-image embedding of one record: the per-record forward the
    stacked ``whole_embed`` replaced."""
    pre = params.weight @ record.featmap.ravel() + params.bias
    return np.tanh(pre) if params.tanh else pre


def embed_one(params, record):
    return enc.embed_records(params, [record])[0]


def test_forward_zero_params_zero_embedding():
    rng = substream(1, "t")
    params = make_params()
    params.weight[:] = 0.0
    params.bias[:] = 0.0
    rec = make_record(rng)
    assert np.array_equal(embed_one(params, rec), np.zeros(4))


def test_forward_identity_weight_returns_flat_map():
    rng = substream(2, "t")
    rec = make_record(rng)
    params = enc.EncoderParams(
        role="drone", weight=np.eye(18), bias=np.zeros(18),
        classifier_weight=np.zeros((3, 18)), classifier_bias=np.zeros(3), tanh=False)
    assert np.allclose(embed_one(params, rec), rec.featmap.ravel())


def test_forward_deterministic():
    rng = substream(3, "t")
    params = make_params(seed=5)
    records = [make_record(rng, rid=i) for i in range(3)]
    stack = enc.embed_records(params, records)
    assert np.array_equal(stack, enc.embed_records(params, records))
    assert np.allclose(stack, [reference_forward(params, r) for r in records],
                       rtol=0.0, atol=1e-12)


def test_forward_dim_mismatch():
    rng = substream(4, "t")
    params = make_params(input_dim=10)
    with pytest.raises(ValueError, match="input_dim"):
        enc.embed_records(params, [make_record(rng)])


def test_sgd_zero_momentum_unit_rate_zeroes_params():
    params = make_params(seed=6)
    state = enc.new_sgd_state(params, lr_head=1.0, lr_body=1.0, momentum=0.0)
    grads = enc.new_grads(params)
    grads.weight += params.weight
    grads.bias += params.bias
    grads.classifier_weight += params.classifier_weight
    grads.classifier_bias += params.classifier_bias
    enc.sgd_step(params, grads, state)
    for arr in (params.weight, params.bias, params.classifier_weight,
                params.classifier_bias):
        assert np.allclose(arr, 0.0)


def test_sgd_two_steps_constant_gradient():
    # v2 = mu * (-lr g) - lr g = -1.9 lr g for mu = 0.9
    params = make_params(seed=7)
    w0 = params.weight.copy()
    g = np.ones_like(params.weight)
    state = enc.new_sgd_state(params, lr_head=0.0, lr_body=0.01, momentum=0.9)
    for _ in range(2):
        grads = enc.new_grads(params)
        grads.weight += g
        enc.sgd_step(params, grads, state)
    # p2 = p0 + v1 + v2 = p0 - lr g - 1.9 lr g
    assert np.allclose(params.weight, w0 - 0.01 * g - 1.9 * 0.01 * g)
    assert np.allclose(state.velocity["weight"], -1.9 * 0.01 * g)


def test_sgd_matches_plain_gd_when_momentum_zero():
    rng = substream(8, "t")
    params = make_params(seed=9)
    reference = params.weight.copy()
    state = enc.new_sgd_state(params, lr_head=0.05, lr_body=0.05, momentum=0.0)
    for _ in range(5):
        g = rng.standard_normal(params.weight.shape)
        grads = enc.new_grads(params)
        grads.weight += g
        enc.sgd_step(params, grads, state)
        reference -= 0.05 * g
    assert np.allclose(params.weight, reference)


def _random_grads(params, rng):
    grads = enc.new_grads(params)
    for g in grads.arrays().values():
        g += rng.standard_normal(g.shape)
    return grads


def test_sgd_rejects_non_finite_gradient():
    rng = substream(19, "t.sgd")
    for name in enc.PARAM_NAMES:
        for bad in (np.nan, np.inf, -np.inf):
            params = make_params(seed=20)
            state = enc.new_sgd_state(params, lr_head=0.01, lr_body=0.001, momentum=0.9)
            enc.sgd_step(params, _random_grads(params, rng), state)  # a non-zero velocity
            arrays = [getattr(params, n) for n in enc.PARAM_NAMES] + list(state.velocity.values())
            before = [arr.copy() for arr in arrays]
            grads = _random_grads(params, rng)
            # the bad value sits last, so every other array has been read first
            getattr(grads, name).flat[-1] = bad
            with pytest.raises(ValueError, match=f"'{name}'"):
                enc.sgd_step(params, grads, state)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(before, arrays)), (name, bad)


def test_sgd_step_matches_the_momentum_formula_bit_for_bit():
    rng = substream(21, "t.sgd")
    params = make_params(seed=22)
    state = enc.new_sgd_state(params, lr_head=0.03, lr_body=0.007, momentum=0.9)
    p = {name: getattr(params, name).copy() for name in enc.PARAM_NAMES}
    v = {name: np.zeros_like(arr) for name, arr in p.items()}
    for _ in range(4):  # the head and body rates stay constant
        grads = _random_grads(params, rng)
        g = {name: arr.copy() for name, arr in grads.arrays().items()}
        enc.sgd_step(params, grads, state)
        for name in enc.PARAM_NAMES:
            v[name] = 0.9 * v[name] - (0.03 if name.startswith("classifier") else 0.007) * g[name]
            p[name] += v[name]
            assert getattr(params, name).tobytes() == p[name].tobytes(), name
            assert state.velocity[name].tobytes() == v[name].tobytes(), name


def test_checkpoint_round_trip(tmp_path, monkeypatch):
    params = make_params(dim=5, input_dim=12, classes=4, seed=11, tanh=True)
    path = tmp_path / "enc.npz"
    enc.save_params(path, params)
    loaded = enc.load_params(path, tanh=True)
    assert loaded.role == params.role
    for name in ("weight", "bias", "classifier_weight", "classifier_bias"):
        assert np.array_equal(getattr(loaded, name), getattr(params, name))
    # byte identity across a load/save cycle, even a day later
    second = tmp_path / "enc2.npz"
    later = time.time() + 86400
    monkeypatch.setattr(time, "time", lambda: later)
    enc.save_params(second, loaded)
    monkeypatch.undo()
    assert path.read_bytes() == second.read_bytes()


def rewrite(path, **changes):
    """The checkpoint at ``path`` rewritten by ``np.savez`` with members
    replaced (or, given None, dropped)."""
    with np.load(path) as archive:
        arrays = dict(archive)
    arrays.update(changes)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    params = make_params(dim=2, input_dim=3, classes=2)
    path = tmp_path / "enc.npz"
    enc.save_params(path, params)
    bias = params.bias.copy()
    bias[0] = float(bad)  # first bias value
    rewrite(path, bias=bias)
    with pytest.raises(ValueError, match=r"enc\.npz: non-finite value in bias"):
        enc.load_params(path, tanh=False)


def test_checkpoint_header_format(tmp_path):
    params = make_params(dim=5, input_dim=12, classes=4)
    path = tmp_path / "enc.npz"
    enc.save_params(path, params)
    with np.load(path) as archive:
        assert sorted(archive.files) == ["bias", "classifier_bias", "classifier_weight",
                                         "format", "role", "weight"]
        assert str(archive["format"]) == "plcd-enc v2"
        assert str(archive["role"]) == "drone"
        assert [archive[name].shape for name in enc.PARAM_NAMES] == \
            [(5, 12), (5,), (4, 5), (4,)]


@pytest.mark.parametrize("case, changes, message", [
    ("text", None, "not a readable 'plcd-enc v2' file: not a zip archive"),
    ("truncated", None, "not a readable 'plcd-enc v2' file"),
    ("data-file", {"format": np.array("plcd-data v2")}, "format tag is 'plcd-data v2'"),
    ("missing-member", {"classifier_bias": None}, "no member classifier_bias"),
    ("object-role", {"role": np.array("drone", dtype=object)}, "Object arrays cannot"),
    ("bias-shape", {"bias": np.zeros(4)}, r"bias has shape \(4,\), needs \(5,\)"),
    ("head-shape", {"classifier_weight": np.zeros((4, 6))},
     r"classifier_weight has shape \(4, 6\), needs \(4, 5\)"),
    ("flat-weight", {"weight": np.zeros(60)}, "member weight is float64 of shape"),
])
def test_checkpoint_rejects_malformed_files(tmp_path, case, changes, message):
    path = tmp_path / f"{case}.npz"
    enc.save_params(path, make_params(dim=5, input_dim=12, classes=4))
    if case == "text":  # the retired text format
        path.write_text("#plcd-enc v1 drone 1 1 1\n0.5\n0.5\n0.5\n0.5\n")
    elif case == "truncated":
        path.write_bytes(path.read_bytes()[:-25])
    else:
        rewrite(path, **changes)
    with pytest.raises(ValueError, match=rf"{case}\.npz: .*{message}"):
        enc.load_params(path, tanh=False)


# finite float64 values, weighted towards the ones a lossy encoding would bend
edge_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-308, 1e16, 1e308, -1e308, 0.1, 1.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))


@st.composite
def encoder_params(draw):
    dim, input_dim, classes = (draw(st.integers(1, 5)) for _ in range(3))
    shapes = ((dim, input_dim), (dim,), (classes, dim), (classes,))
    arrays = [draw(hnp.arrays(np.float64, shape, elements=edge_floats)) for shape in shapes]
    role = draw(st.sampled_from([enc.ROLE_GROUND, enc.ROLE_DRONE, enc.ROLE_SHARED]))
    return enc.EncoderParams(role, *arrays, tanh=False)


@settings(max_examples=60, deadline=None)
@given(encoder_params())
def test_checkpoint_round_trip_bit_exact_and_rewrite_byte_identical(params):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.npz", Path(tmp) / "b.npz"
        enc.save_params(first, params)
        loaded = enc.load_params(first, tanh=False)
        assert loaded.role == params.role
        for name in enc.PARAM_NAMES:
            assert getattr(loaded, name).tobytes() == getattr(params, name).tobytes()
            assert getattr(loaded, name).shape == getattr(params, name).shape
        enc.save_params(second, loaded)
        assert first.read_bytes() == second.read_bytes()


def test_params_digest_tracks_content():
    params = make_params(seed=12)
    before = params_digest(params)
    assert before == params_digest(params.copy())
    params.weight[0, 0] += 1.0
    assert params_digest(params) != before


# ---------------------------------------------------------------------------
# region path against the per-region reference
# ---------------------------------------------------------------------------

def reference_projection(weight, map_shape, cells):
    """(dim, channels) projection of one region: the mean of the weight
    blocks over the region's cells."""
    c, h, w = map_shape
    return weight.reshape(weight.shape[0], c, h * w)[:, :, cells].mean(axis=2)


def reference_embed(params, map_shape, cells_list, pooled):
    """Descriptors (k, dim) of one record, one region at a time."""
    rows = []
    for cells, v in zip(cells_list, pooled):
        pre = reference_projection(params.weight, map_shape, cells) @ (v - v.mean()) \
            + params.bias
        rows.append(np.tanh(pre) if params.tanh else pre)
    return np.stack(rows)


def reference_backward(params, map_shape, cells_list, pooled, g_rows, grads):
    """Add one record's descriptor gradients, one region at a time: each
    region's outer product spread evenly over its cells' weight blocks."""
    c, h, w = map_shape
    weight3 = grads.weight.reshape(params.dim, c, h * w)
    for cells, v, g in zip(cells_list, pooled, g_rows):
        centered = v - v.mean()
        pre = reference_projection(params.weight, map_shape, cells) @ centered + params.bias
        g_pre = g * (1.0 - np.tanh(pre) ** 2) if params.tanh else g
        weight3[:, :, cells] += np.outer(g_pre, centered)[:, :, None] / len(cells)
        grads.bias += g_pre


def record_major_region_embed(params, avg, pooled):
    """The region forward on a record-major (n, k, c) stack of raw pooled
    rows, blocks and centering computed inline and both product operands
    strided: the bit reference for ``PooledCache.blocks`` + ``region_embed``."""
    _, k, c = pooled.shape
    blocks = (params.weight.reshape(params.dim * c, -1) @ avg.T) \
        .reshape(params.dim, c, k).transpose(2, 0, 1)
    centered = pooled - pooled.mean(axis=-1, keepdims=True)
    pre = np.matmul(centered.transpose(1, 0, 2), blocks.transpose(0, 2, 1))
    pre = pre.transpose(1, 0, 2) + params.bias
    return np.tanh(pre) if params.tanh else pre


def record_major_region_backward(params, avg, pooled, descs, g_desc, grads):
    """The matching record-major backward, with an out-of-place tanh slope:
    the bit reference for ``PooledCache.backward``."""
    if params.tanh:
        g_desc = g_desc * (1.0 - descs ** 2)
    k = avg.shape[0]
    centered = pooled - pooled.mean(axis=-1, keepdims=True)
    g_blocks = np.matmul(g_desc.transpose(1, 2, 0), centered.transpose(1, 0, 2))
    grads.weight += (g_blocks.transpose(1, 2, 0).reshape(-1, k) @ avg) \
        .reshape(grads.weight.shape)
    grads.bias += g_desc.sum(axis=(0, 1))


def _region_fixture(tanh, n=7, map_shape=(4, 6, 6), dim=5):
    """(cache, cells per region, raw pooled (n, k, c), the cache's centered
    (k, n, c) rows, params, rng) for ``n`` random records."""
    rng = substream(13, "t.region")
    grid = rmac.region_grid(6, (1, 2, 3))
    cache = rmac.PooledCache(grid, map_shape)
    cells_list = [np.arange(36)] + [rmac.region_cells(r, map_shape) for r in grid]
    records = [make_record(rng, map_shape, rid=i) for i in range(n)]
    params = make_params(dim=dim, input_dim=int(np.prod(map_shape)), tanh=tanh, seed=14)
    params.bias[:] = rng.standard_normal(dim)
    pooled = rmac.pool_regions(np.stack([r.featmap for r in records]), grid)
    return cache, cells_list, pooled, cache.stack(records), params, rng


def test_averaging_matrix_rows_cover_each_region_evenly():
    cache, cells_list, _, _, _, _ = _region_fixture(tanh=False)
    assert cache.avg.shape == (len(cells_list), 36)
    for row, cells in zip(cache.avg, cells_list):
        assert np.array_equal(np.flatnonzero(row), np.sort(cells))
        assert np.allclose(row[cells], 1.0 / len(cells))
    assert np.allclose(cache.avg[0], 1.0 / 36)  # row 0: the full map


@pytest.mark.parametrize("tanh", [False, True])
def test_region_embed_matches_per_region_reference(tanh):
    cache, cells_list, pooled, rows, params, _ = _region_fixture(tanh)
    batch = rmac.region_embed(params, cache.blocks(params), rows)
    assert batch.shape == (len(pooled), len(cells_list), params.dim)
    for one, descs in zip(pooled, batch):
        ref = reference_embed(params, (4, 6, 6), cells_list, one)
        assert np.max(np.abs(descs - ref)) <= 1e-12


@pytest.mark.parametrize("tanh", [False, True])
def test_batched_region_backward_matches_per_record_gradients(tanh):
    cache, cells_list, pooled, rows, params, rng = _region_fixture(tanh)
    g_desc = rng.standard_normal((len(pooled), len(cells_list), params.dim))
    batched = enc.new_grads(params)
    descs = rmac.region_embed(params, cache.blocks(params), rows)
    cache.backward(params, rows, descs, g_desc.copy(), batched)
    per_record = enc.new_grads(params)
    for one, g in zip(pooled, g_desc):
        reference_backward(params, (4, 6, 6), cells_list, one, g, per_record)
    assert np.max(np.abs(batched.weight - per_record.weight)) <= 1e-10
    assert np.max(np.abs(batched.bias - per_record.bias)) <= 1e-10
    assert not batched.classifier_weight.any()


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


@pytest.mark.parametrize("tanh", [False, True])
@pytest.mark.parametrize("n", [1, 5, 56])
def test_region_path_matches_the_record_major_formulas_bit_for_bit(tanh, n):
    # training's sizes: 32 channels, 15 regions, dim 128
    cache, _, pooled, rows, params, rng = _region_fixture(tanh, n=n, map_shape=(32, 6, 6),
                                                          dim=128)
    assert rows.flags.c_contiguous and rows.shape == (15, n, 32)
    descs = rmac.region_embed(params, cache.blocks(params), rows)
    assert descs.transpose(1, 0, 2).flags.c_contiguous
    want = record_major_region_embed(params, cache.avg, pooled)
    if n >= 10:
        assert _bits(descs) == _bits(want)
    else:
        # OpenBLAS rounds products of fewer than 10 rows on the contiguous
        # blocks differently from the strided ones (and a one-row strided
        # stack never reaches BLAS): last bits only
        assert np.max(np.abs(descs - want)) <= 1e-13 * np.max(np.abs(want))

    # a gradient laid out as the trainers lay it out: like the descriptors
    g_desc = rng.standard_normal((15, n, params.dim)).transpose(1, 0, 2)
    got, expected = enc.new_grads(params), enc.new_grads(params)
    for grads in (got, expected):
        grads.weight += 1.0 / 3.0  # sums land on a non-zero start
    record_major_region_backward(params, cache.avg, pooled, want, g_desc.copy(order="K"), expected)
    # both backward passes read the same descriptors
    cache.backward(params, rows, want, g_desc.copy(order="K"), got)
    assert _bits(got.weight) == _bits(expected.weight)
    assert _bits(got.bias) == _bits(expected.bias)


def test_region_embed_rejects_mismatched_shapes():
    cache, _, _, rows, params, _ = _region_fixture(tanh=False)
    blocks = cache.blocks(params)
    with pytest.raises(ValueError, match="input_dim"):
        rmac.region_embed(params, blocks, rows[:, :, :3])
    with pytest.raises(ValueError, match="input_dim"):
        rmac.region_embed(params, blocks, rows[1:])
    with pytest.raises(ValueError, match="input_dim"):
        rmac.region_embed(params, blocks, rows[0])
    with pytest.raises(ValueError, match="input_dim"):
        cache.blocks(make_params(dim=5, input_dim=4 * 36 - 1))


def reference_whole_backward(params, x, g_emb, grads, normalized=False):
    """Add one record's whole-image gradients, re-running its forward."""
    pre = params.weight @ x + params.bias
    if normalized:
        emb = np.tanh(pre) if params.tanh else pre
        norm = float(np.linalg.norm(emb))
        if norm > 1e-12:
            unit = emb / norm
            g_emb = (g_emb - float(g_emb @ unit) * unit) / norm
    g_pre = g_emb * (1.0 - np.tanh(pre) ** 2) if params.tanh else g_emb
    grads.weight += np.outer(g_pre, x)
    grads.bias += g_pre


@pytest.mark.parametrize("tanh", [False, True])
@pytest.mark.parametrize("normalized", [False, True])
def test_whole_embed_and_backward_match_per_record_reference(tanh, normalized):
    rng = substream(15, "t.whole")
    params = make_params(tanh=tanh, seed=16)
    params.bias[:] = rng.standard_normal(params.dim)
    records = [make_record(rng, rid=i) for i in range(5)]
    x = np.stack([r.featmap.ravel() for r in records])
    embs = enc.whole_embed(params, x)
    for rec, emb in zip(records, embs):
        assert np.max(np.abs(emb - reference_forward(params, rec))) <= 1e-12
    g_emb = rng.standard_normal(embs.shape)
    batched, per_record = enc.new_grads(params), enc.new_grads(params)
    enc.whole_backward(params, x, embs, g_emb, batched, normalized=normalized)
    for row, g in zip(x, g_emb):
        reference_whole_backward(params, row, g, per_record, normalized=normalized)
    assert np.max(np.abs(batched.weight - per_record.weight)) <= 1e-10
    assert np.max(np.abs(batched.bias - per_record.bias)) <= 1e-10
    with pytest.raises(ValueError, match="input_dim"):
        enc.whole_embed(params, x[:, :10])


def test_classifier_backward_matches_per_row_outer_products():
    rng = substream(17, "t.head")
    params = make_params(seed=18)
    embs = rng.standard_normal((4, params.dim))
    g_logits = rng.standard_normal((4, params.classes))
    grads = enc.new_grads(params)
    g_embs = enc.classifier_backward(params, embs, g_logits, grads)
    expected = sum(np.outer(g, e) for g, e in zip(g_logits, embs))
    assert np.max(np.abs(grads.classifier_weight - expected)) <= 1e-12
    assert np.allclose(grads.classifier_bias, g_logits.sum(axis=0), rtol=0, atol=1e-12)
    for g_emb, g in zip(g_embs, g_logits):
        assert np.max(np.abs(g_emb - params.classifier_weight.T @ g)) <= 1e-12


def test_normalized_embed_backward_matches_fd():
    rng = substream(14, "t")
    x = rng.standard_normal((3, 18))
    target = rng.standard_normal((3, 4))

    def loss_fn(arrs):
        params = enc.EncoderParams("d", arrs[0], arrs[1],
                                   np.zeros((3, 4)), np.zeros(3), tanh=True)
        grads = enc.new_grads(params)
        embs = enc.whole_embed(params, x)
        diff = enc.unit_rows(embs) - target
        enc.whole_backward(params, x, embs, 2.0 * diff, grads, normalized=True)
        return float(np.sum(diff * diff)), [grads.weight, grads.bias,
                                            grads.classifier_weight, grads.classifier_bias]

    p = make_params(tanh=True)
    err = check_gradients(
        loss_fn, [p.weight, p.bias, p.classifier_weight, p.classifier_bias], 1e-6)
    assert err < 1e-6
