"""Host speed index: how fast this host runs a fixed calibration kernel now.

The benchmark shares a few cores of a host whose speed drifts by 20 to 40%
over seconds to minutes, and most of that drift slows a fixed kernel as much
as it slows the program. So an untraced run spends a share of its time on a
fixed kernel, in slices right after each timed step (steps are kept to a
few seconds where the workload allows), and scales its timings
by ``NOMINAL_CHUNK_S / mean chunk time``: a time then reads as on the
reference host at its nominal speed, and the drift both see cancels out. The
kernel mixes what the program does: interpreted Python, small dense
matrix-vector products and a dense solve the size of the retrieve-large
graph, all on one BLAS thread.
"""

from __future__ import annotations

import time

import numpy as np

# Mean chunk time on the reference host: an Intel Xeon vCPU at 2.1 GHz with
# one BLAS thread, numpy 2.4 on OpenBLAS.
NOMINAL_CHUNK_S = 0.058

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((380, 380)) / 380.0
_VECTOR = _rng.random(380)
_SYSTEM = np.eye(950) * 950.0 + _rng.random((950, 950))


def chunk() -> None:
    """One fixed unit of calibration work, in about equal thirds: products
    with a matrix that fits in cache, one solve of a matrix that does not,
    and an interpreted loop."""
    f = _VECTOR
    for _ in range(400):
        f = 0.5 * (_MATRIX @ f) + 0.5 * _VECTOR
    np.linalg.solve(_SYSTEM, np.resize(f, 950))
    table: dict[int, float] = {}
    for i in range(65000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5


class HostSpeed:
    """Runs calibration chunks for ``share`` of each timed step's duration."""

    def __init__(self, share: float):
        self.share = share
        self.chunks = 0
        self.busy_s = 0.0

    def after_step(self, step_s: float) -> None:
        spent = 0.0
        while spent < self.share * step_s or not self.chunks:
            start = time.perf_counter()
            chunk()
            spent += time.perf_counter() - start
            self.chunks += 1
        self.busy_s += spent

    @property
    def factor(self) -> float:
        """Multiply a wall time measured in this run by this to get the time
        at the reference host's nominal speed."""
        return NOMINAL_CHUNK_S * self.chunks / self.busy_s
