"""Random-walk re-ranking across the drone/satellite similarity graph.

A column-stochastic transition matrix is built from cosine similarities in
the satellite-drone embedding space (top-k sparsified, symmetrized, column
normalized). A query starts the walk by placing weight on its nearest drone
nodes, measured in the ground-drone space; after the walk converges the
satellite-node weights give the ranking. The walk solves
f <- alpha * S @ f + (1 - alpha) * f0, either by iteration or via the linear
system (I - alpha * S) x = f0, which shares its fixed point up to scale.
Ranking reads only the satellite rows of x, so the closed form solves once
per graph and alpha for those rows of (I - alpha * S)^-1 and scores every
later query with one product. Queries come in batches: f0 holds one column
per query, and one product ranks them all. The iterative walk multiplies a
block of the columns still walking, which shrinks as columns converge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataspace import DRONE, SATELLITE
from .ranking import RankingList, rank_rows

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


def _top_k(sims: np.ndarray, k: int) -> np.ndarray:
    """Column indices (n, k) of each row's k largest entries, ascending. A
    tie at the k-th largest value goes to the lowest indices, so each row
    holds the set the first k of a stable descending sort would, found by
    one partition instead of a full sort."""
    n = sims.shape[1]
    kth = np.partition(sims, n - k, axis=1)[:, [n - k]]
    above = sims > kth
    ties = sims == kth
    room = k - np.count_nonzero(above, axis=1)[:, None]
    # int32: the n x n running count of ties at half the int64 size
    chosen = above | (ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= room))
    return np.nonzero(chosen)[1].reshape(len(sims), k)


def build_graph(drone_embs: Sequence[np.ndarray], sat_embs: Sequence[np.ndarray],
                drone_ids: Sequence[int], sat_ids: Sequence[int],
                k_graph: int) -> TransitionGraph:
    """Top-k cosine graph over drones + satellites, symmetrized, column-stochastic.

    Equal similarities keep the lower node index first, also between
    byte-identical nodes, whose similarities are made exactly equal. Negative
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
    # The product can round byte-identical nodes differently; every column
    # is read from the lowest index of its node's identical rows, so copies
    # tie exactly and the tie rule, not rounding, orders them.
    _, first, inverse = np.unique(emb.view(np.dtype((np.void, emb.itemsize * emb.shape[1]))),
                                  return_index=True, return_inverse=True)
    sims = (emb @ emb.T)[:, first[inverse.ravel()]]
    np.fill_diagonal(sims, -np.inf)

    neighbors = _top_k(sims, k_graph)
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
    n_drone, n_query = sims.shape
    if cfg.k_init < n_drone:
        nearest = _top_k(np.ascontiguousarray(sims.T), cfg.k_init).T
    else:
        nearest = np.arange(n_drone)[:, None]
    cols = np.arange(n_query)
    f0 = np.zeros((total_nodes, n_query))
    f0[nearest, cols] = np.maximum(sims[nearest, cols], 0.0) ** cfg.gamma
    return f0


def diffuse_iterative(matrix: np.ndarray, f0: np.ndarray, alpha: float,
                      max_iters: int, tol: float) -> DiffusionResult:
    """Fixed-point iteration of the restarted walk on every column of ``f0``
    at once. Each column stops at its own first iteration whose sup-norm
    change is below ``tol``, so its state and count are those of a walk on
    that column alone. The columns still walking form one contiguous block
    with their restart terms; a column leaves it, and is written back, when
    it stops or at ``max_iters``."""
    f = np.array(f0, dtype=float).reshape(len(f0), -1)
    cur, restart = f, (1.0 - alpha) * f
    m = f.shape[1]
    iterations = np.full(m, max_iters)
    converged = np.zeros(m, dtype=bool)
    active = np.arange(m)
    for it in range(1, max_iters + 1):
        nxt = matrix @ cur
        nxt *= alpha
        nxt += restart
        step = nxt - cur
        done = np.abs(step, out=step).max(axis=0) < tol
        cur = nxt
        if done.any():
            f[:, active[done]] = cur[:, done]
            iterations[active[done]] = it
            converged[active[done]] = True
            active, cur, restart = active[~done], cur[:, ~done], restart[:, ~done]
            if not active.size:
                break
    f[:, active] = cur
    state = f[:, 0] if f0.ndim == 1 else f
    return DiffusionResult(state=state, column_iterations=iterations,
                           column_converged=converged)


def closed_form_operator(matrix: np.ndarray, rows: Sequence[int], alpha: float,
                         cap: int = 2000) -> np.ndarray:
    """Rows ``rows`` of (I - alpha * S)^-1, shape (len(rows), n), from one
    solve of the transposed system with one right-hand side per row; the
    solution x of (I - alpha * S) x = f0 at those rows is then
    ``apply_operator(operator, f0)``. Graphs above ``cap`` nodes raise."""
    n = matrix.shape[0]
    if n > cap:
        raise ValueError(f"graph size {n} exceeds the direct-solve cap {cap}")
    picks = np.zeros((n, len(rows)))
    picks[rows, np.arange(len(rows))] = 1.0
    return np.ascontiguousarray(np.linalg.solve((np.eye(n) - alpha * matrix).T, picks).T)


def apply_operator(operator: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """``operator @ f0`` for an (n, q) ``f0``. An einsum over node-contiguous
    rows, not a BLAS product: each column's scores are then summed the same
    way in a batch as alone, as ``init_state``'s start vectors are."""
    return np.einsum("sn,qn->sq", operator, np.ascontiguousarray(f0.T))


def rank_satellites(sat_scores: np.ndarray, graph: TransitionGraph,
                    query_ids: Sequence[int]) -> list[RankingList]:
    """``rank_rows`` of each column of ``sat_scores`` (satellite rows, in
    ``graph.satellite_indices()`` order); an all-zero column is degenerate."""
    sat_idx = graph.satellite_indices()
    if not sat_idx:
        raise ValueError("graph contains no satellite nodes")
    return rank_rows(query_ids, [graph.node_ids[i] for i in sat_idx], sat_scores.T,
                     degenerate=~sat_scores.any(axis=0))


# ---------------------------------------------------------------------------
# cached gallery index and the batched query flow
# ---------------------------------------------------------------------------

@dataclass
class DiffusionIndex:
    """One-time gallery artifacts shared by every query: the sd-space graph
    and the unit-normalized gd-space drone rows used for walk initialization
    (empty when there is no graph). ``operators`` memoizes the closed form's
    satellite-row operator per alpha; the graph never changes once built."""

    graph: TransitionGraph | None
    drone_gd: np.ndarray
    sat_ids: list[int]
    cfg: DiffusionConfig
    operators: dict[float, np.ndarray] = field(default_factory=dict)


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
        return rank_rows(query_ids, index.sat_ids,
                         np.zeros((len(query_ids), len(index.sat_ids))), degenerate=True)
    graph = index.graph
    f0 = init_state(query_embs, index.drone_gd, cfg, graph.size)
    sat_idx = graph.satellite_indices()
    if cfg.closed_form:
        operator = index.operators.get(a)
        if operator is None:
            operator = closed_form_operator(graph.matrix, sat_idx, a, cfg.closed_form_cap)
            index.operators[a] = operator
        scores = apply_operator(operator, f0)
    else:
        walk = diffuse_iterative(graph.matrix, f0, a, cfg.max_iters, cfg.tol)
        if not walk.converged:
            stuck = [int(q) for q, ok in zip(query_ids, walk.column_converged) if not ok]
            raise ValueError(f"walk did not converge within max_iters={cfg.max_iters} "
                             f"for queries {stuck}")
        scores = walk.state[sat_idx]
    return rank_satellites(scores, graph, query_ids)


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
        values = " ".join(map(repr, np.asarray(vec, dtype=float).tolist()))
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
        vec = np.array(tok[3:], dtype=float)
        if vec.size != dim:
            raise ValueError(f"{path}: entry {tok[0]} has {vec.size} dims, needs {dim}")
        if not np.isfinite(vec).all():
            raise ValueError(f"{path}: entry {tok[0]} has a non-finite value")
        out.append((int(tok[0]), tok[1], int(tok[2]), vec))
    return out
