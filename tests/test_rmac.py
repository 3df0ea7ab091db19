import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcd import encoder as enc
from plcd import rmac
from plcd.config import RunConfig
from plcd.dataspace import DRONE, ImageRecord


def test_default_table_grid_count_and_widths():
    grid = rmac.region_grid(12, (1, 2, 3, 4))
    assert len(grid) == 30
    widths = {r.scale: r.width for r in grid}
    assert widths == {1: 12, 2: 9, 3: 7, 4: 5}
    for r in grid:
        assert 0 <= r.x0 and r.x0 + r.width <= 12
        assert 0 <= r.y0 and r.y0 + r.height <= 12


def test_scale_one_is_full_map():
    (region,) = rmac.region_grid(12, (1,))
    assert (region.x0, region.y0, region.width, region.height) == (0, 0, 12, 12)


def test_scale_two_offsets():
    grid = rmac.region_grid(12, (2,))
    offsets = sorted({(r.x0, r.y0) for r in grid})
    assert offsets == [(0, 0), (0, 3), (3, 0), (3, 3)]


def test_region_count_is_sum_of_squares():
    for scales in ((1,), (1, 2), (1, 2, 3, 4), (2, 4)):
        grid = rmac.region_grid(12, scales)
        assert len(grid) == sum(l * l for l in scales)


def test_in_bounds_across_sides():
    for side in (4, 5, 6, 7, 8, 12, 16):
        grid = rmac.region_grid(side, (1, 2, 3, 4))
        for r in grid:
            assert 0 <= r.x0 and r.x0 + r.width <= side
            assert 0 <= r.y0 and r.y0 + r.height <= side


def test_width_rule_fallback():
    # scale 5 has no table entry: round(2 * 12 / 6) = 4
    assert rmac.region_width(12, 5) == 4


def test_width_rule_error():
    # R-MAC's rule rounds to 0 once the scale outgrows the side
    with pytest.raises(ValueError, match=r"^width rule gives 0 for scale 24 on side 6; "):
        rmac.region_width(6, 24)


@pytest.mark.parametrize("height, width", [(8, 8), (6, 8)])
def test_config_grid_refuses_maps_of_another_side(height, width):
    # the grid a stage pools with is the one the config checked at load
    cfg = RunConfig()
    assert rmac.config_grid(cfg, (4, 6, 6)) == rmac.region_grid(6, cfg.scales)
    with pytest.raises(ValueError) as err:
        rmac.config_grid(cfg, (4, height, width))
    assert str(err.value) == f"maps are {height}x{width} but the run config's map_side is 6"


def reference_pool(fm, region):
    """Per-map, per-region max pool: the loop the batched pooling replaced."""
    _, height, width = fm.shape
    if region.x0 < 0 or region.y0 < 0 or region.x0 + region.width > width \
            or region.y0 + region.height > height:
        raise ValueError(f"region {region} out of bounds")
    return fm[:, region.y0:region.y0 + region.height,
              region.x0:region.x0 + region.width].max(axis=(1, 2))


def pooled_regions(fm, grid):
    """The grid rows of one map's pooled stack."""
    return rmac.pool_regions(fm[None], grid)[0, 1:]


def test_max_pool_constant_map():
    fm = np.full((3, 4, 4), 2.5)
    grid = rmac.region_grid(4, (1,))
    assert np.array_equal(rmac.pool_regions(fm[None], grid), np.full((1, 2, 3), 2.5))


def test_max_pool_full_map_is_global_max():
    rng = np.random.default_rng(0)
    fm = rng.standard_normal((5, 6, 6))
    (glob, full), = rmac.pool_regions(fm[None], rmac.region_grid(6, (1,)))
    assert np.array_equal(full, fm.max(axis=(1, 2)))
    assert np.array_equal(glob, full)


def test_max_pool_hand_case():
    fm = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    region = rmac.Region(scale=1, x0=0, y0=0, width=2, height=1)
    assert np.array_equal(pooled_regions(fm, [region]), [[2.0]])


def test_max_pool_out_of_bounds():
    maps = np.zeros((3, 1, 2, 2))
    inside, outside = rmac.Region(1, 0, 0, 2, 2), rmac.Region(1, 1, 1, 2, 2)
    with pytest.raises(ValueError, match=r"bounds") as err:
        rmac.pool_regions(maps, [inside, outside])
    assert str(outside) in str(err.value)


@pytest.mark.parametrize("shape", [(12, 12), (6, 12), (9, 5)])
def test_pool_regions_matches_per_region_reference(shape):
    rng = np.random.default_rng(6)
    maps = rng.standard_normal((7, 4, *shape))
    maps[3] = maps[1]  # a duplicated map pools to the same rows
    grid = rmac.region_grid(min(shape), (1, 2, 3, 4))
    pooled = rmac.pool_regions(maps, grid)
    assert pooled.shape == (7, 1 + len(grid), 4)
    for fm, rows in zip(maps, pooled):
        assert np.array_equal(rows[0], fm.max(axis=(1, 2)))
        assert np.array_equal(rows[1:], np.stack([reference_pool(fm, r) for r in grid]))
    assert np.array_equal(pooled[3], pooled[1])


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5), st.integers(1, 6),
       st.sampled_from(["contiguous", "strided", "position-major"]),
       st.integers(0, 2**32 - 1))
def test_pool_regions_bit_identical_on_any_stack(height, width, n, channels, layout, seed):
    # square and non-square maps, stacks of one and more, strided and
    # position-major views, and tied -0.0/+0.0 cells: pooling must not
    # change a single bit of the per-map pool
    rng = np.random.default_rng(seed)
    maps = rng.integers(-3, 4, (n, 2 * channels, height, width)) * 0.5
    maps[rng.random(maps.shape) < 0.1] = -0.0
    if layout == "strided":
        maps = maps[:, ::2]
    elif layout == "position-major":
        maps = np.ascontiguousarray(maps[:, :channels].transpose(2, 3, 0, 1)) \
            .transpose(2, 3, 0, 1)
    else:
        maps = maps[:, :channels].copy()
    grid = rmac.region_grid(min(height, width), (1, 2, 3))
    pooled = rmac.pool_regions(maps, grid)
    for fm, rows in zip(np.ascontiguousarray(maps), pooled):  # a record's map
        expected = np.stack([fm.max(axis=(1, 2))] + [reference_pool(fm, r) for r in grid])
        assert rows.tobytes() == expected.tobytes()


def test_pooled_cache_pools_new_records_once(monkeypatch):
    from plcd.dataspace import ImageRecord

    rng = np.random.default_rng(7)
    records = [ImageRecord(i, "D", 1, 1, rng.standard_normal((3, 6, 6))) for i in range(5)]
    grid = rmac.region_grid(6, (1, 2))
    calls = []
    pool = rmac.pool_regions
    monkeypatch.setattr(rmac, "pool_regions",
                        lambda maps, g: calls.append(len(maps)) or pool(maps, g))
    cache = rmac.PooledCache(grid, (3, 6, 6))
    order = [records[i] for i in (2, 0, 2, 4, 0)]
    stack = cache.stack(order)
    assert calls == [3]  # three distinct records, one call
    # position-major (k, n, c), each record's rows centered
    assert stack.shape == (len(grid) + 1, len(order), 3) and stack.flags.c_contiguous
    for i, rec in enumerate(order):
        pooled = np.stack([rec.featmap.max(axis=(1, 2))]
                          + [reference_pool(rec.featmap, r) for r in grid])
        assert np.array_equal(stack[:, i], pooled - pooled.mean(axis=-1, keepdims=True))
    again = cache.stack(records)
    assert calls == [3, 2]  # only the two records not seen yet
    assert np.array_equal(again[:, [2, 0, 4]], stack[:, [0, 1, 3]])


def store_descriptor_blocks(params, grid, records):
    """Retrieval's region descriptors through a ``PooledCache`` store: one
    centered (k, c) array per record, restacked position-major, and forwarded
    in the retrieval blocks (a lone trailing record joins the block before)."""
    pooled = np.ascontiguousarray(rmac.pool_regions(np.stack([r.featmap for r in records]),
                                                    grid))
    store = dict(zip([r.id for r in records], pooled - pooled.mean(axis=-1, keepdims=True)))
    rows = np.stack([store[r.id] for r in records], axis=1)
    blocks = rmac.PooledCache(grid, records[0].featmap.shape).blocks(params)
    starts = list(range(0, len(records), rmac.RETRIEVAL_BLOCK))
    if len(starts) > 1 and starts[-1] == len(records) - 1:
        starts.pop()
    return [rmac.region_embed(params, blocks, rows[:, start:stop])
            for start, stop in zip(starts, starts[1:] + [len(records)])]


@pytest.mark.parametrize("size", [1, 2, 128, 129, 257])
def test_retrieval_features_match_the_per_record_store(size):
    # one stack pooled straight into position-major rows gives the bytes of
    # the per-record store, over block boundaries and a lone trailing record
    rng = np.random.default_rng(size)
    maps = rng.standard_normal((size, 4, 6, 6))
    maps[(maps < -1.5)] = 0.0
    maps[1::3] = maps[::3][:len(maps[1::3])]  # repeated maps pool alike
    records = [ImageRecord(i, DRONE, 1, 1, fm) for i, fm in enumerate(maps)]
    grid = rmac.region_grid(6, (1, 2, 3))
    params = enc.init_params("drone", 8, maps[0].size, 3, rng, tanh=True)
    blocks = store_descriptor_blocks(params, grid, records)
    feats = np.concatenate([rmac.aggregate_feature(descs)[0] for descs in blocks])
    assert rmac.drone_features(params, grid, records).tobytes() == feats.tobytes()
    gallery = np.concatenate([
        enc.unit_rows(np.concatenate([rmac.aggregate_feature(d)[0][:, None], d[:, 1:]], axis=1))
        for d in blocks])
    assert rmac.gallery_descriptors(params, grid, records).tobytes() == gallery.tobytes()


def test_pooled_values_attained_and_bound():
    rng = np.random.default_rng(1)
    fm = rng.standard_normal((4, 12, 12))
    grid = rmac.region_grid(12, (1, 2, 3, 4))
    for region, pooled in zip(grid, pooled_regions(fm, grid)):
        window = fm[:, region.y0:region.y0 + region.height,
                    region.x0:region.x0 + region.width]
        for ch in range(fm.shape[0]):
            assert pooled[ch] == window[ch].max()
            assert np.all(pooled[ch] >= window[ch])


def test_monotone_in_cell_values():
    rng = np.random.default_rng(2)
    fm = rng.standard_normal((3, 8, 8))
    grid = rmac.region_grid(8, (1, 2, 3))
    before = pooled_regions(fm, grid)
    for trial in range(20):
        bumped = fm.copy()
        ch = trial % 3
        y, x = rng.integers(8), rng.integers(8)
        bumped[ch, y, x] += abs(rng.standard_normal()) + 0.1
        after = pooled_regions(bumped, grid)
        assert np.all(after >= before - 1e-12)


def test_extract_order_stable_and_counts():
    rng = np.random.default_rng(3)
    fm = rng.standard_normal((2, 12, 12))
    grid = rmac.region_grid(12, (1, 2, 3, 4))
    first = pooled_regions(fm, grid)
    second = pooled_regions(fm, grid)
    assert len(first) == len(grid)
    assert np.array_equal(first, second)
    # ascending scale then row-major centers
    order = [(r.scale, r.y0, r.x0) for r in grid]
    assert order == sorted(order)


def test_identical_maps_identical_features():
    rng = np.random.default_rng(4)
    fm = rng.standard_normal((2, 6, 6))
    grid = rmac.region_grid(6, (1, 2))
    assert np.array_equal(pooled_regions(fm, grid), pooled_regions(fm.copy(), grid))


def test_local_change_only_affects_covering_regions():
    rng = np.random.default_rng(5)
    fm = rng.standard_normal((2, 12, 12))
    grid = rmac.region_grid(12, (1, 2, 3, 4))
    before = pooled_regions(fm, grid)
    y, x = 1, 10
    bumped = fm.copy()
    bumped[:, y, x] = fm.max() + 1.0  # above every max: covering regions must change
    after = pooled_regions(bumped, grid)
    for region, b, a in zip(grid, before, after):
        covers = (region.x0 <= x < region.x0 + region.width
                  and region.y0 <= y < region.y0 + region.height)
        if covers:
            assert not np.array_equal(a, b)
        else:
            assert np.array_equal(a, b)


def test_region_cells_match_window():
    grid = rmac.region_grid(6, (2, 3))
    for region in grid:
        cells = rmac.region_cells(region, (1, 6, 6))
        assert len(cells) == region.width * region.height
        ys, xs = np.divmod(cells, 6)
        assert ys.min() == region.y0 and ys.max() == region.y0 + region.height - 1
        assert xs.min() == region.x0 and xs.max() == region.x0 + region.width - 1


def test_empty_scales_rejected():
    with pytest.raises(ValueError, match="scales"):
        rmac.region_grid(12, ())
