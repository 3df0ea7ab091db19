"""Random-walk re-ranking across the drone/satellite similarity graph.

A column-stochastic transition matrix is built from cosine similarities in
the satellite-drone embedding space (top-k sparsified, symmetrized, column
normalized). A query starts the walk by placing weight on its nearest drone
nodes, measured in the ground-drone space; after the walk converges the
satellite-node weights give the ranking. The walk solves
f <- alpha * S @ f + (1 - alpha) * f0, either by iteration or via the linear
system (I - alpha * S) x = f0, which shares its fixed point up to scale.
Queries come in batches: f0 holds one column per query, and one solve (or
one walk over the whole matrix) ranks them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataspace import DRONE, SATELLITE
from .ranking import RankingList, rank_gallery

EMB_MAGIC = "#plcd-emb v1"


@dataclass(frozen=True)
class DiffusionConfig:
    alpha: float = 0.9
    gamma: float = 3.0
    k_graph: int = 10
    k_init: int = 10
    max_iters: int = 1000
    tol: float = 1e-9
    closed_form: bool = True
    closed_form_cap: int = 2000

    def validate(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1) (got {self.alpha})")
        if self.k_graph < 1:
            raise ValueError(f"k_graph must be >= 1 (got {self.k_graph})")
        if self.k_init < 1:
            raise ValueError(f"k_init must be >= 1 (got {self.k_init})")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive (got {self.tol})")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1 (got {self.max_iters})")


@dataclass
class TransitionGraph:
    """Column-stochastic transition matrix plus node bookkeeping.

    Nodes are ordered drones first, satellites after; ``node_ids`` maps node
    index to record id.
    """

    matrix: np.ndarray
    node_ids: list[int]
    node_views: list[str]

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def satellite_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.node_views) if v == SATELLITE]

    def drone_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.node_views) if v == DRONE]


@dataclass
class DiffusionResult:
    """Walk state (one column per query for a 2-D ``f0``) plus, per column,
    the iteration it stopped at and whether its stopping rule was met."""

    state: np.ndarray
    column_iterations: np.ndarray
    column_converged: np.ndarray

    @property
    def iterations(self) -> int:
        return int(self.column_iterations.sum())

    @property
    def converged(self) -> bool:
        return bool(self.column_converged.all())


def _reject_non_finite(rows: np.ndarray, what: str) -> None:
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite embedding at {what} index {int(np.argmax(bad))}")


def _normalized_rows(embs: Sequence[np.ndarray], what: str) -> np.ndarray:
    rows = np.array(embs, dtype=float, ndmin=2)
    _reject_non_finite(rows, what)
    norms = np.linalg.norm(rows, axis=1)
    small = norms < 1e-12
    if small.any():
        raise ValueError(f"zero-norm embedding at {what} index {int(np.argmax(small))}")
    return rows / norms[:, None]


def build_graph(drone_embs: Sequence[np.ndarray], sat_embs: Sequence[np.ndarray],
                drone_ids: Sequence[int], sat_ids: Sequence[int],
                k_graph: int) -> TransitionGraph:
    """Top-k cosine graph over drones + satellites, symmetrized, column-stochastic.

    Equal similarities keep the lower node index first. Negative
    similarities are clamped to zero after neighbor selection; a column left
    all-zero falls back to uniform 1/k over that node's k nearest neighbors
    regardless of sign, so every column sums to one.
    """
    n_drone, n_sat = len(drone_embs), len(sat_embs)
    n = n_drone + n_sat
    if n < 2:
        raise ValueError(f"graph needs at least 2 nodes (got {n})")
    if not 1 <= k_graph < n:
        raise ValueError(f"k_graph must be in [1, {n - 1}] (got {k_graph})")
    emb = _normalized_rows(list(drone_embs) + list(sat_embs), "graph node")
    sims = emb @ emb.T
    np.fill_diagonal(sims, -np.inf)

    # copied, so that the full n x n sort order is freed at once
    neighbors = np.argsort(-sims, axis=1, kind="stable")[:, :k_graph].copy()
    rows = np.arange(n)[:, None]
    affinity = np.zeros((n, n))
    affinity[rows, neighbors] = np.maximum(sims[rows, neighbors], 0.0)

    affinity = (affinity + affinity.T) / 2.0
    col_sums = affinity.sum(axis=0)
    empty = np.flatnonzero(col_sums <= 0.0)
    if empty.size:
        affinity[:, empty] = 0.0
        affinity[neighbors[empty], empty[:, None]] = 1.0 / k_graph
        col_sums[empty] = affinity[:, empty].sum(axis=0)
    affinity /= col_sums

    node_ids = [int(i) for i in drone_ids] + [int(i) for i in sat_ids]
    node_views = [DRONE] * n_drone + [SATELLITE] * n_sat
    return TransitionGraph(matrix=affinity, node_ids=node_ids, node_views=node_views)


def init_state(query_embs: Sequence[np.ndarray], drone_gd: np.ndarray,
               cfg: DiffusionConfig, total_nodes: int) -> np.ndarray:
    """Initial walk weights, one column per query: clamped gd-space
    similarity ** gamma on the query's k_init nearest drone nodes, zero
    elsewhere (satellites included).

    ``drone_gd`` holds the unit-normalized drone rows, as ``DiffusionIndex``
    stores them. A zero query is left unnormalized and seeds nothing.
    """
    cfg.validate()
    if len(drone_gd) == 0:
        raise ValueError("init_state needs at least one drone node")
    queries = np.array(query_embs, dtype=float, ndmin=2)
    _reject_non_finite(queries, "query")
    norms = np.linalg.norm(queries, axis=1)
    queries = queries / np.where(norms < 1e-12, 1.0, norms)[:, None]
    # einsum, not a BLAS product: each drone-query sum is then computed the
    # same way wherever its rows sit, so duplicated drones tie exactly and a
    # query's start vector does not depend on the other queries in its batch.
    sims = np.einsum("dk,qk->dq", drone_gd, queries)
    nearest = np.argsort(-sims, axis=0, kind="stable")[: cfg.k_init]
    cols = np.arange(sims.shape[1])
    f0 = np.zeros((total_nodes, sims.shape[1]))
    f0[nearest, cols] = np.maximum(sims[nearest, cols], 0.0) ** cfg.gamma
    return f0


def diffuse_iterative(matrix: np.ndarray, f0: np.ndarray, alpha: float,
                      max_iters: int, tol: float) -> DiffusionResult:
    """Fixed-point iteration of the restarted walk on every column of ``f0``
    at once. Each column stops at its own first iteration whose sup-norm
    change is below ``tol``, so its state and count are those of a walk on
    that column alone."""
    f = np.array(f0, dtype=float).reshape(len(f0), -1)
    restart = (1.0 - alpha) * f
    m = f.shape[1]
    iterations = np.full(m, max_iters)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    for it in range(1, max_iters + 1):
        nxt = alpha * (matrix @ f[:, active]) + restart[:, active]
        done = np.max(np.abs(nxt - f[:, active]), axis=0) < tol
        f[:, active] = nxt
        iterations[active[done]] = it
        converged[active[done]] = True
        active = active[~done]
        if not active.size:
            break
    state = f[:, 0] if f0.ndim == 1 else f
    return DiffusionResult(state=state, column_iterations=iterations,
                           column_converged=converged)


def diffuse_closed_form(matrix: np.ndarray, f0: np.ndarray, alpha: float,
                        cap: int = 2000) -> np.ndarray:
    """Solve (I - alpha * S) x = f0 for every column of ``f0`` in one call;
    x is the walk's limit up to scale."""
    n = matrix.shape[0]
    if n > cap:
        raise ValueError(f"graph size {n} exceeds the direct-solve cap {cap}")
    return np.linalg.solve(np.eye(n) - alpha * matrix, f0)


def rank_satellites(states: np.ndarray, graph: TransitionGraph,
                    query_ids: Sequence[int]) -> list[RankingList]:
    """Restrict each state column to the satellite nodes and sort it
    descending; column j ranks for ``query_ids[j]``."""
    sat_idx = graph.satellite_indices()
    if not sat_idx:
        raise ValueError("graph contains no satellite nodes")
    ids = [graph.node_ids[i] for i in sat_idx]
    weights = states[sat_idx].T
    return [rank_gallery(qid, ids, w.tolist(), degenerate=not w.any())
            for qid, w in zip(query_ids, weights)]


# ---------------------------------------------------------------------------
# cached gallery index and the batched query flow
# ---------------------------------------------------------------------------

@dataclass
class DiffusionIndex:
    """One-time gallery artifacts shared by every query: the sd-space graph
    and the unit-normalized gd-space drone rows used for walk initialization
    (empty when there is no graph)."""

    graph: TransitionGraph | None
    drone_gd: np.ndarray
    sat_ids: list[int]
    cfg: DiffusionConfig


def build_index(drone_sd_embs: Sequence[np.ndarray], sat_sd_embs: Sequence[np.ndarray],
                drone_gd_embs: Sequence[np.ndarray], drone_ids: Sequence[int],
                sat_ids: Sequence[int], cfg: DiffusionConfig) -> DiffusionIndex:
    cfg.validate()
    if len(drone_sd_embs) == 0:
        graph = None  # queries degrade to zero-weight satellite rankings
        drone_gd = np.empty((0, 0))
    else:
        graph = build_graph(drone_sd_embs, sat_sd_embs, drone_ids, sat_ids,
                            min(cfg.k_graph, len(drone_ids) + len(sat_ids) - 1))
        drone_gd = _normalized_rows(drone_gd_embs, "drone(gd)")
    return DiffusionIndex(graph=graph, drone_gd=drone_gd,
                          sat_ids=[int(i) for i in sat_ids], cfg=cfg)


def query(index: DiffusionIndex, query_ids: Sequence[int],
          query_embs: Sequence[np.ndarray],
          alpha: float | None = None) -> list[RankingList]:
    """Rank the satellite gallery for a batch of ground queries, all solved
    (or walked) together; one query is a batch of one.

    Drone reference records enter only through their embeddings; their
    identity labels are never consulted. With no drone references the walk
    cannot reach any satellite, and every result is a degenerate
    (zero-score) ranking ordered by gallery id. An iterative walk that
    leaves any query unconverged after ``max_iters`` raises instead of
    ranking it.
    """
    if len(query_ids) != len(query_embs):
        raise ValueError(f"{len(query_ids)} query ids for {len(query_embs)} embeddings")
    cfg = index.cfg
    a = cfg.alpha if alpha is None else alpha
    if index.graph is None:
        return [rank_gallery(qid, index.sat_ids, [0.0] * len(index.sat_ids),
                             degenerate=True)
                for qid in query_ids]
    f0 = init_state(query_embs, index.drone_gd, cfg, index.graph.size)
    if cfg.closed_form:
        states = diffuse_closed_form(index.graph.matrix, f0, a, cfg.closed_form_cap)
    else:
        walk = diffuse_iterative(index.graph.matrix, f0, a, cfg.max_iters, cfg.tol)
        if not walk.converged:
            stuck = [int(q) for q, ok in zip(query_ids, walk.column_converged) if not ok]
            raise ValueError(f"walk did not converge within max_iters={cfg.max_iters} "
                             f"for queries {stuck}")
        states = walk.state
    return rank_satellites(states, index.graph, query_ids)


# ---------------------------------------------------------------------------
# embedding exchange files
# ---------------------------------------------------------------------------

def format_embeddings(entries: Sequence[tuple[int, str, int, np.ndarray]]) -> str:
    """Entries are (record id, view, landmark-or-0, vector)."""
    if not entries:
        raise ValueError("no embeddings to write")
    dim = len(entries[0][3])
    lines = [f"{EMB_MAGIC} {len(entries)} {dim}"]
    for rid, view, landmark, vec in entries:
        values = " ".join(repr(float(v)) for v in vec)
        lines.append(f"{rid} {view} {landmark} {values}")
    return "\n".join(lines) + "\n"


def write_embeddings(path, entries) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_embeddings(entries))


def read_embeddings(path) -> list[tuple[int, str, int, np.ndarray]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(EMB_MAGIC):
        raise ValueError(f"{path}: missing '{EMB_MAGIC}' header")
    count, dim = int(lines[0].split()[2]), int(lines[0].split()[3])
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: header promises {count} entries, found {len(lines) - 1}")
    out = []
    for ln in lines[1:]:
        tok = ln.split()
        vec = np.array([float(t) for t in tok[3:]])
        if vec.size != dim:
            raise ValueError(f"{path}: entry {tok[0]} has {vec.size} dims, needs {dim}")
        out.append((int(tok[0]), tok[1], int(tok[2]), vec))
    return out
