"""Multi-scale rigid-grid region generation and per-region max pooling.

At scale ``l`` the grid places ``l x l`` square regions whose top-left
corners sit on a uniform lattice. Region widths come from a configurable
table (defaults reproduce the 12/9/7/5 progression on a 12-cell map, scaled
proportionally for other sides); scales without a table entry fall back to
``round(2 * side / (l + 1))``. Pooling reads a whole map stack
position-major, one max reduction per region over contiguous (n, c) planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_WIDTH_TABLE: dict[int, int] = {1: 12, 2: 9, 3: 7, 4: 5}
REFERENCE_SIDE = 12


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


def region_width(side: int, scale: int, width_table: dict[int, int] | None = None,
                 reference_side: int = REFERENCE_SIDE) -> int:
    table = DEFAULT_WIDTH_TABLE if width_table is None else width_table
    if scale in table:
        base = table[scale]
        width = base if side == reference_side else _round_half_up(base * side / reference_side)
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


def region_grid(map_shape: int | tuple[int, int], scales: Iterable[int],
                width_table: dict[int, int] | None = None,
                reference_side: int = REFERENCE_SIDE) -> list[Region]:
    """Regions for all scales, ordered by ascending scale then row-major centers.

    ``map_shape`` is either a square side or (height, width); rectangular maps
    apply the width rule per axis.
    """
    if isinstance(map_shape, tuple):
        height, width = map_shape
    else:
        height = width = int(map_shape)
    scales = sorted(set(int(l) for l in scales))
    if not scales:
        raise ValueError("scales must be non-empty")
    if min(scales) < 1:
        raise ValueError(f"scales must be >= 1 (got {min(scales)})")
    regions: list[Region] = []
    for scale in scales:
        w = region_width(width, scale, width_table, reference_side)
        h = region_width(height, scale, width_table, reference_side)
        for y0 in _offsets(height, h, scale):
            for x0 in _offsets(width, w, scale):
                regions.append(Region(scale=scale, x0=x0, y0=y0, width=w, height=h))
    return regions


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
    row equals the per-map, per-region pool of a record's map bit for bit."""
    n, c = featmaps.shape[:2]
    windows = [(slice(None), slice(None))] + [_window(r, featmaps.shape[1:]) for r in grid]
    planes = np.ascontiguousarray(featmaps.transpose(2, 3, 0, 1))
    out = np.empty((n, len(windows), c))
    for row, (ys, xs) in enumerate(windows):
        out[:, row] = planes[ys, xs].max(axis=(0, 1))
    # Tied -0.0/+0.0 cells leave a zero maximum's sign to the reduction order:
    # maps with a zero maximum are pooled again map-major, in per-map order.
    redo = np.flatnonzero((out == 0).any(axis=(1, 2)))
    if redo.size:
        maps = np.ascontiguousarray(featmaps[redo])
        for row, (ys, xs) in enumerate(windows):
            out[redo, row] = maps[:, :, ys, xs].max(axis=(2, 3))
    return out


def region_cells(region: Region, map_shape: tuple[int, int, int]) -> np.ndarray:
    """Flat spatial indices (row-major over height x width) the region covers."""
    ys, xs = _window(region, map_shape)
    return np.arange(map_shape[1] * map_shape[2]).reshape(map_shape[1:])[ys, xs].ravel()


def grid_to_csv(grid: Sequence[Region]) -> str:
    """Debug dump, one ``scale,x0,y0,w,h`` line per region."""
    lines = ["scale,x0,y0,w,h"]
    lines += [f"{r.scale},{r.x0},{r.y0},{r.width},{r.height}" for r in grid]
    return "\n".join(lines) + "\n"
