"""Multi-scale rigid-grid regions, per-region max pooling, and the region
descriptor path built on them.

At scale ``l`` the grid places ``l x l`` square regions of a square map
whose top-left corners sit on a uniform lattice. Region widths follow one
fixed rule: 12/9/7/5 cells at scales 1-4 on a 12-cell map, scaled in
proportion to the map side, and R-MAC's ``round(2 * side / (l + 1))``
beyond scale 4; a run sets only ``scales``. Pooling reads a whole map stack
position-major, one max reduction per region over contiguous (n, c) planes.

Region descriptors share an encoder's whole-image parameters: a region's
centered pooled channel vector is spread evenly over that region's cells and
sent through the identical affine map, so a checkpoint holds no extra
tensors. ``pooled_stack`` pools and centers a record list straight into
one position-major (k, n, channels) stack; retrieval pools a gallery that
way, one block of records at a time. ``PooledCache`` keeps each record's
rows from it for training, so a record is pooled once (maps never change).
Its fixed (k, h*w) averaging matrix folds the encoder weight into
contiguous (k, channels, dim) blocks (``PooledCache.blocks``, built once per
step for a trained encoder and once per run for a frozen one) and folds the stack's (k, dim, channels) gradient
back (``PooledCache.backward``); ``region_embed`` is one batched product
over those operands. A drone-branch image feature is the mean of a record's unit
region descriptors (``aggregate_feature``). Step II's soft loss, the
satellite-drone patch loss and retrieval (``drone_features``,
``gallery_descriptors``) all read this one path. Both backward passes take
the forward's output rather than recomputing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .dataspace import ImageRecord
from .encoder import EncoderGrads, EncoderParams, unit_rows

if TYPE_CHECKING:
    from .config import RunConfig

WIDTHS_AT_12 = {1: 12, 2: 9, 3: 7, 4: 5}  # scale -> region width on a 12-cell map


@dataclass(frozen=True)
class Region:
    """Rectangular window on a feature map, in cell units."""

    scale: int
    x0: int
    y0: int
    width: int
    height: int


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def region_width(side: int, scale: int) -> int:
    if scale in WIDTHS_AT_12:
        width = _round_half_up(WIDTHS_AT_12[scale] * side / 12)
    else:
        width = _round_half_up(2 * side / (scale + 1))
    if not 1 <= width <= side:
        raise ValueError(
            f"width rule gives {width} for scale {scale} on side {side}; "
            f"must be within [1, {side}]"
        )
    return width


def _offsets(side: int, width: int, scale: int) -> list[int]:
    if scale == 1:
        return [_round_half_up((side - width) / 2)]
    return [_round_half_up(i * (side - width) / (scale - 1)) for i in range(scale)]


def region_grid(side: int, scales: Iterable[int]) -> list[Region]:
    """Regions of a ``side x side`` map for all scales, ordered by ascending
    scale then row-major centers."""
    scales = sorted(set(int(l) for l in scales))
    if not scales:
        raise ValueError("scales must be non-empty")
    if min(scales) < 1:
        raise ValueError(f"scales must be >= 1 (got {min(scales)})")
    regions: list[Region] = []
    for scale in scales:
        width = region_width(side, scale)
        offsets = _offsets(side, width, scale)
        regions += [Region(scale=scale, x0=x0, y0=y0, width=width, height=width)
                    for y0 in offsets for x0 in offsets]
    return regions


def config_grid(cfg: RunConfig, map_shape: tuple[int, int, int]) -> list[Region]:
    """The grid a run config sets, the one it checked at load; (channels,
    height, width) maps of another shape than ``map_side`` square raise."""
    if map_shape[1:] != (cfg.map_side, cfg.map_side):
        raise ValueError(f"maps are {map_shape[1]}x{map_shape[2]} but the run config's "
                         f"map_side is {cfg.map_side}")
    return region_grid(cfg.map_side, cfg.scales)


def _window(region: Region, map_shape: tuple[int, int, int]) -> tuple[slice, slice]:
    """The region's (rows, columns) slices; raises if it leaves the map."""
    _, height, width = map_shape
    if region.x0 < 0 or region.y0 < 0 or region.x0 + region.width > width \
            or region.y0 + region.height > height:
        raise ValueError(f"region {region} out of bounds for map shape {map_shape}")
    return (slice(region.y0, region.y0 + region.height),
            slice(region.x0, region.x0 + region.width))


def pool_regions(featmaps: np.ndarray, grid: Sequence[Region]) -> np.ndarray:
    """Max-pooled rows (n, 1 + len(grid), c) of an (n, c, h, w) map stack:
    row 0 is the global max pool, the rest follow the grid order. The stack
    is read position-major, (h, w, n, c), copied if not laid out so; every
    row equals the per-map, per-region pool of a record's map bit for bit.
    The rows are an (n, k, c) view of a contiguous position-major (k, n, c)
    array, the layout ``region_embed`` reads."""
    n, c = featmaps.shape[:2]
    windows = [(slice(None), slice(None))] + [_window(r, featmaps.shape[1:]) for r in grid]
    planes = np.ascontiguousarray(featmaps.transpose(2, 3, 0, 1))
    out = np.empty((len(windows), n, c))
    for row, (ys, xs) in enumerate(windows):
        out[row] = planes[ys, xs].max(axis=(0, 1))
    # Tied -0.0/+0.0 cells leave a zero maximum's sign to the reduction order:
    # maps with a zero maximum are pooled again map-major, in per-map order.
    redo = np.flatnonzero((out == 0).any(axis=(0, 2)))
    if redo.size:
        maps = np.ascontiguousarray(featmaps[redo])
        for row, (ys, xs) in enumerate(windows):
            out[row, redo] = maps[:, :, ys, xs].max(axis=(2, 3))
    return out.transpose(1, 0, 2)


def region_cells(region: Region, map_shape: tuple[int, int, int]) -> np.ndarray:
    """Flat spatial indices (row-major over height x width) the region covers."""
    ys, xs = _window(region, map_shape)
    return np.arange(map_shape[1] * map_shape[2]).reshape(map_shape[1:])[ys, xs].ravel()


# ---------------------------------------------------------------------------
# region descriptors
# ---------------------------------------------------------------------------

def pooled_stack(grid: list[Region], records: list[ImageRecord]) -> np.ndarray:
    """Position-major (k, n, channels) stack of ``records``' centered pooled
    rows (``pool_regions`` rows: the global max pool, then the grid order),
    in order, pooled as one stack."""
    channels, height, width = records[0].featmap.shape
    # stacked position-major, (h, w, n, c): pool_regions copies nothing
    maps = np.empty((height, width, len(records), channels))
    for i, r in enumerate(records):
        maps[:, :, i] = r.featmap.transpose(1, 2, 0)
    rows = pool_regions(maps.transpose(2, 3, 0, 1), grid).transpose(1, 0, 2)
    # Centered: channel maxima share a large positive offset, which would
    # give every descriptor the same dominant direction (the job PCA
    # whitening does for full-scale region descriptors).
    rows -= rows.mean(axis=-1, keepdims=True)
    return rows


class PooledCache:
    """Centered region-pooled rows per record (``pool_regions`` rows: the
    global max pool, then the grid order), computed once per record, and the
    matching (k, h*w) averaging matrix: row r is 1/|cells_r| on region r's
    cells, row 0 the full map."""

    def __init__(self, grid: list[Region], map_shape: tuple[int, int, int]):
        self.grid = grid
        cells = map_shape[1] * map_shape[2]
        cells_list = [np.arange(cells)] + [region_cells(r, map_shape) for r in grid]
        self.avg = np.zeros((len(cells_list), cells))
        for row, covered in enumerate(cells_list):
            self.avg[row, covered] = 1.0 / len(covered)
        self._store: dict[int, np.ndarray] = {}

    def stack(self, records: list[ImageRecord]) -> np.ndarray:
        """Position-major (k, n, channels) stack of ``records``' centered
        pooled rows, in order. Records not seen yet are pooled in one
        ``pooled_stack`` call."""
        fresh = {r.id: r for r in records if r.id not in self._store}
        if fresh:
            rows = pooled_stack(self.grid, list(fresh.values()))
            self._store.update(zip(fresh, rows.transpose(1, 0, 2)))
        return np.stack([self._store[r.id] for r in records], axis=1)

    def blocks(self, params: EncoderParams) -> np.ndarray:
        """Contiguous (k, channels, dim) weight blocks: block r is the weight
        averaged over region r's cells. They change with the weight only, so
        a frozen encoder's serve a whole run."""
        k, cells = self.avg.shape
        channels = params.input_dim // cells
        if channels * cells != params.input_dim:
            raise ValueError(f"a {self.avg.shape} averaging matrix does not match encoder "
                             f"input_dim {params.input_dim} (role {params.role})")
        blocks = params.weight.reshape(params.dim * channels, cells) @ self.avg.T
        return np.ascontiguousarray(blocks.reshape(params.dim, channels, k).transpose(2, 1, 0))

    def backward(self, params: EncoderParams, rows: np.ndarray, descs: np.ndarray,
                 g_descs: np.ndarray, grads: EncoderGrads) -> None:
        """Add the gradients of a row stack's descriptors ``descs`` from
        ``region_embed``, given as ``g_descs`` (n, k, dim) laid out like them,
        into ``grads.weight`` and ``grads.bias``; ``g_descs`` takes the tanh
        slope in place and its (k, dim, n) transpose feeds the product."""
        if params.tanh:
            slope = descs * descs
            np.subtract(1.0, slope, out=slope)
            g_descs *= slope
        # (k, dim, c): per-region outer products summed over the stack
        g_blocks = np.matmul(g_descs.transpose(1, 2, 0), rows)
        grads.weight += (g_blocks.transpose(1, 2, 0).reshape(-1, self.avg.shape[0])
                         @ self.avg).reshape(grads.weight.shape)
        grads.bias += g_descs.sum(axis=(0, 1))


def region_embed(params: EncoderParams, blocks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Region descriptors of a position-major (k, n, channels) stack of
    centered pooled rows, ``blocks`` from ``PooledCache.blocks``: one batched
    product, read as an (n, k, dim) view of a contiguous (k, n, dim) array."""
    if rows.ndim != 3 or rows.shape[::2] != blocks.shape[:2]:
        raise ValueError(f"a {rows.shape} row stack does not match the {blocks.shape} blocks "
                         f"of encoder input_dim {params.input_dim} (role {params.role})")
    out = np.matmul(rows, blocks)
    out += params.bias
    if params.tanh:
        np.tanh(out, out=out)
    return out.transpose(1, 0, 2)


def aggregate_feature(descs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drone-branch image features (n, dim) from region descriptors
    (n, k, dim): the mean of each record's L2-normalized rows, returned with
    the row norms (n, k, 1) that ``aggregate_backward`` reuses.

    Aggregating the region descriptors routes every training gradient through
    the region path, so the same descriptors that drive retrieval also back
    the similarity distributions and the best-sub-region representation. All
    k rows participate (row 0, the global max pool, duplicates the scale-1
    region and mildly emphasizes the global view); the mean keeps the feature
    on the same scale as a single unit descriptor.
    """
    norms = np.linalg.norm(descs, axis=-1, keepdims=True)
    return (descs / np.maximum(norms, 1e-12)).mean(axis=-2), norms


def aggregate_backward(descs: np.ndarray, norms: np.ndarray, g_feats: np.ndarray,
                       g_descs: np.ndarray) -> None:
    """Add feature gradients (n, dim), chained back through the mean and the
    row normalization (``norms`` from ``aggregate_feature``), into ``g_descs``
    (n, k, dim). A row with norm below 1e-12 passes no gradient."""
    floored = np.maximum(norms, 1e-12)
    unit = descs / floored  # the forward's unit rows, bit for bit
    g = g_feats[:, None, :] / descs.shape[1]
    rows = g * unit
    dots = np.sum(rows, axis=-1, keepdims=True)
    np.multiply(dots, unit, out=rows)
    np.subtract(g, rows, out=rows)
    rows /= floored
    rows[~(norms[..., 0] >= 1e-12)] = 0.0
    g_descs += rows


# Records per region pooling and forward at retrieval time: bounds the
# pooled rows, the (n, k, dim) descriptor stack and their temporaries for
# large galleries.
RETRIEVAL_BLOCK = 128


def _descriptor_blocks(params: EncoderParams, grid: list[Region], records: list[ImageRecord]):
    """Region descriptors (b, k, dim) of ``records``, one block at a time,
    each block's records pooled straight into their own position-major stack
    (``pooled_stack``; pooling and centering are per record, so the rows
    have the bits of one whole-list stack). A lone trailing record joins the
    block before it: a one-row product takes numpy's vector path, whose low
    bits differ from every stacked one."""
    blocks = PooledCache(grid, records[0].featmap.shape).blocks(params)
    starts = list(range(0, len(records), RETRIEVAL_BLOCK))
    if len(starts) > 1 and starts[-1] == len(records) - 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [len(records)]):
        yield region_embed(params, blocks, pooled_stack(grid, records[start:stop]))


def drone_features(params: EncoderParams, grid: list[Region],
                   records: list[ImageRecord]) -> np.ndarray:
    """(n, dim) drone-branch image features of a non-empty record list: the
    training path's region-aggregate feature."""
    return np.concatenate([aggregate_feature(descs)[0] for descs in
                           _descriptor_blocks(params, grid, records)])


def gallery_descriptors(params: EncoderParams, grid: list[Region],
                        records: list[ImageRecord]) -> np.ndarray:
    """(n, m+1, dim) L2-normalized rows per record, for best-sub-region
    scoring: the image-level region-aggregate feature, then one row per grid
    region."""
    return np.concatenate([
        unit_rows(np.concatenate([aggregate_feature(descs)[0][:, None], descs[:, 1:]], axis=1))
        for descs in _descriptor_blocks(params, grid, records)])
