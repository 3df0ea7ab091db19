"""Random-walk re-ranking across the drone/satellite similarity graph.

A column-stochastic top-k cosine graph S is built over the drone and
satellite embeddings of the satellite-drone space. A query seeds the walk
on its nearest drone nodes, measured in the ground-drone space, and the
restarted walk f <- alpha * S @ f + (1 - alpha) * f0 ranks the satellites
by their weight at its fixed point: iterated, or solved as
(I - alpha * S) x = f0, which shares that fixed point up to scale. A
``DiffusionIndex`` holds what the gallery fixes, and no drone ids; the
config of each ``query`` call sets the walk. Queries come in batches, one
column of f0 each.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import encoder as enc
from .ranking import RankingList, rank_rows

if TYPE_CHECKING:
    from .config import RunConfig

# Largest graph the closed form solves: its dense n x n system grows with
# the square of the node count. Larger graphs need the walk
# (``closed_form=false``).
CLOSED_FORM_CAP = 2000

# Largest walk budget a query accepts: alpha near 1 derives budgets that no
# walk ends (about 2e17 iterations at alpha 0.9999999999999999).
WALK_BUDGET_CAP = 100_000


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
    one partition instead of a full sort. A row ties there iff an entry
    left of its partition point equals the k-th value; only those rows run
    the running-count tie rule."""
    m, n = sims.shape
    part = np.partition(sims, n - k, axis=1)
    kth = part[:, [n - k]]
    tied = np.flatnonzero(part[:, :n - k].max(axis=1) == kth[:, 0])
    del part
    chosen = sims >= kth
    if tied.size:
        rows, kth = sims[tied], kth[tied]
        above = rows > kth
        ties = rows == kth
        room = k - np.count_nonzero(above, axis=1)[:, None]
        # int32: the running count of ties at half the int64 size
        chosen[tied] = above | (ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= room))
    cols = np.flatnonzero(chosen).reshape(m, k)
    cols -= np.arange(0, m * n, n)[:, None]
    return cols


def build_graph(node_embs: np.ndarray, k_graph: int) -> np.ndarray:
    """Column-stochastic matrix of the symmetrized top-k cosine graph over
    the rows of ``node_embs``, one node each.

    Equal similarities keep the lower node index first, also between
    byte-identical nodes, whose similarities are made exactly equal. Negative
    similarities are clamped to zero after neighbor selection; a column left
    all-zero falls back to uniform 1/k over that node's k nearest neighbors
    regardless of sign, so every column sums to one.

    The graph is built inside the one n x n similarity buffer: once the
    neighbors are picked, the buffer is zeroed and takes the affinity, each
    pick added onto zeros in both directions and the sum halved in place,
    which gives (a + a.T) / 2 bit for bit.
    """
    n = len(node_embs)
    emb = _normalized_rows(node_embs, "graph node")
    sims = emb @ emb.T
    # The product can round byte-identical nodes differently; every column
    # is read from the lowest index of its node's identical rows, so copies
    # tie exactly and the tie rule, not rounding, orders them.
    _, first, inverse = np.unique(emb.view(np.dtype((np.void, emb.itemsize * emb.shape[1]))),
                                  return_index=True, return_inverse=True)
    source = first[inverse.ravel()]
    copies = np.flatnonzero(source != np.arange(n))
    if copies.size:
        sims[:, copies] = sims[:, source[copies]]
    np.fill_diagonal(sims, -np.inf)

    neighbors = _top_k(sims, k_graph)
    rows = np.arange(n)[:, None]
    weights = np.maximum(sims[rows, neighbors], 0.0)
    affinity = sims
    affinity.fill(0.0)
    affinity[rows, neighbors] += weights
    affinity[neighbors, rows] += weights
    affinity /= 2.0
    col_sums = affinity.sum(axis=0)
    empty = np.flatnonzero(col_sums <= 0.0)
    if empty.size:
        affinity[:, empty] = 0.0
        affinity[neighbors[empty], empty[:, None]] = 1.0 / k_graph
        col_sums[empty] = affinity[:, empty].sum(axis=0)
    affinity /= col_sums
    return affinity


def init_state(query_embs: Sequence[np.ndarray], drone_gd: np.ndarray,
               cfg: RunConfig, total_nodes: int) -> np.ndarray:
    """Initial walk weights, one column per query: clamped gd-space
    similarity ** gamma on the query's k_init nearest drone nodes, zero
    elsewhere (satellites included).

    ``drone_gd`` holds the unit-normalized drone rows, as ``DiffusionIndex``
    stores them. A zero query is left unnormalized and seeds nothing.
    """
    queries = np.array(query_embs, dtype=float, ndmin=2)
    _reject_non_finite(queries, "query")
    queries = enc.unit_rows(queries)
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
    change is below ``tol``. A block product sums in another order than a
    one-column product, so a column's state can differ in its low bits from
    a walk on that column alone. Its count and its ranking order can differ
    only where a change lies within that rounding of ``tol``, or two scores
    within it of each other. The columns still walking form one contiguous
    block with their restart terms; a column leaves it, and is written back,
    when it stops or when the iterations run out."""
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


def _walk_budget(f0: np.ndarray, alpha: float, tol: float) -> int:
    """Iterations by which the walk on a column-stochastic, non-negative S
    stops every column of ``f0``. ``||S v||_1 <= ||v||_1``, the first step
    is alpha (S f0 - f0) and each later one alpha S times the one before,
    so the sup-norm step at iteration t is at most 2 alpha^t L, with L the
    largest column 1-norm of ``f0``: below ``tol`` by iteration
    1 + floor(ln(tol / 2L) / ln alpha). A zero column stops at iteration 1."""
    largest = float(np.abs(f0).sum(axis=0).max(initial=0.0))
    if largest == 0.0:
        return 1
    return 1 + max(0, int(np.floor(np.log(tol / (2.0 * largest)) / np.log(alpha))))


def closed_form_operator(matrix: np.ndarray, rows: Sequence[int], alpha: float,
                         cap: int = CLOSED_FORM_CAP) -> np.ndarray:
    """Rows ``rows`` of (I - alpha * S)^-1, shape (len(rows), n), from one
    solve of the transposed system with one right-hand side per row; the
    solution x of (I - alpha * S) x = f0 at those rows is then
    ``apply_operator(operator, f0)``. Graphs above ``cap`` nodes raise."""
    n = matrix.shape[0]
    if n > cap:
        raise ValueError(f"graph size {n} exceeds the direct-solve cap {cap}; "
                         "closed_form=false ranks it by the walk")
    picks = np.zeros((n, len(rows)))
    picks[rows, np.arange(len(rows))] = 1.0
    # I - alpha * S in one array, bit for bit np.eye(n) - alpha * matrix:
    # 0.0 - x keeps a zero's sign where -x would flip it
    system = np.multiply(matrix, alpha)
    np.subtract(0.0, system, out=system)
    np.fill_diagonal(system, 1.0 - alpha * matrix.diagonal())
    return np.ascontiguousarray(np.linalg.solve(system.T, picks).T)


def apply_operator(operator: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """``operator @ f0`` for an (n, q) ``f0``. An einsum over node-contiguous
    rows, not a BLAS product: each column's scores are then summed the same
    way in a batch as alone, as ``init_state``'s start vectors are."""
    return np.einsum("sn,qn->sq", operator, np.ascontiguousarray(f0.T))


def rank_satellites(sat_scores: np.ndarray, sat_ids: Sequence[int],
                    query_ids: Sequence[int]) -> list[RankingList]:
    """``rank_rows`` of each column of ``sat_scores`` (one row per satellite,
    in ``sat_ids`` order); an all-zero column is degenerate."""
    return rank_rows(query_ids, sat_ids, sat_scores.T,
                     degenerate=~sat_scores.any(axis=0))


# ---------------------------------------------------------------------------
# cached gallery index and the batched query flow
# ---------------------------------------------------------------------------

@dataclass
class DiffusionIndex:
    """What a gallery fixes, shared by every query: the sd-space graph's
    column-stochastic ``matrix`` built at ``k_graph`` over the drone nodes,
    then the satellite nodes; the satellite ids, in node order; and the
    unit-normalized gd-space drone rows that seed the walk, one per drone
    node. ``operators`` memoizes the closed form's satellite-row operator
    per alpha. Each query's config sets the walk itself."""

    matrix: np.ndarray
    sat_ids: list[int]
    drone_gd: np.ndarray
    k_graph: int
    operators: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def sat_rows(self) -> range:
        return range(len(self.drone_gd), len(self.matrix))


def build_index(drone_sd_embs: np.ndarray, sat_sd_embs: np.ndarray,
                drone_gd_embs: np.ndarray | Future, sat_ids: Sequence[int],
                cfg: RunConfig) -> DiffusionIndex:
    """The index of a gallery, its nodes the drones and then the satellites.
    Without drone nodes no walk reaches a satellite, and without satellite
    nodes there is nothing to rank, so an empty set of either raises; so
    does an id list without one id per satellite node, or a gd-space stack
    without one row per drone node. The gd-space rows are read only once
    the graph is built, so they may come as a future still being computed
    elsewhere; its failure raises here."""
    if len(drone_sd_embs) == 0:
        raise ValueError("diffusion needs at least one drone node")
    if len(sat_sd_embs) == 0:
        raise ValueError("diffusion needs at least one satellite node")
    if len(sat_ids) != len(sat_sd_embs):
        raise ValueError(f"{len(sat_ids)} satellite ids for {len(sat_sd_embs)} satellite nodes")
    nodes = np.concatenate((drone_sd_embs, sat_sd_embs))
    matrix = build_graph(nodes, min(cfg.k_graph, len(nodes) - 1))
    if isinstance(drone_gd_embs, Future):
        drone_gd_embs = drone_gd_embs.result()
    if len(drone_gd_embs) != len(drone_sd_embs):
        raise ValueError(f"{len(drone_gd_embs)} gd-space drone rows for "
                         f"{len(drone_sd_embs)} drone nodes")
    return DiffusionIndex(matrix=matrix, sat_ids=[int(i) for i in sat_ids],
                          drone_gd=_normalized_rows(drone_gd_embs, "drone(gd)"),
                          k_graph=cfg.k_graph)


def query(index: DiffusionIndex, cfg: RunConfig, query_ids: Sequence[int],
          query_embs: Sequence[np.ndarray]) -> list[RankingList]:
    """Rank the satellite gallery for a batch of ground queries, all solved
    (or walked) together; one query is a batch of one. ``cfg`` sets the walk
    (``alpha``, ``k_init``, ``gamma``, ``closed_form``, ``tol``); its
    ``k_graph`` must be the index's. The closed form refuses a graph above
    ``CLOSED_FORM_CAP`` nodes. The cap bounds a solve, and a memoized
    operator runs none, so reusing one for ``alpha`` does not check the cap
    again.

    Drone reference records enter only through their embeddings: the index
    holds no drone ids. The iterative walk runs within a budget that
    ``_walk_budget`` derives from the start vectors, ``alpha`` and ``tol``,
    and refuses one above ``WALK_BUDGET_CAP`` before it iterates; only
    rounding could leave a query unconverged within it, and that raises
    instead of ranking the query.
    """
    if cfg.k_graph != index.k_graph:
        raise ValueError(f"config k_graph={cfg.k_graph} differs from the index's "
                         f"k_graph={index.k_graph}")
    if len(query_ids) != len(query_embs):
        raise ValueError(f"{len(query_ids)} query ids for {len(query_embs)} embeddings")
    f0 = init_state(query_embs, index.drone_gd, cfg, len(index.matrix))
    if cfg.closed_form:
        operator = index.operators.get(cfg.alpha)
        if operator is None:
            operator = index.operators[cfg.alpha] = closed_form_operator(
                index.matrix, index.sat_rows, cfg.alpha, CLOSED_FORM_CAP)
        scores = apply_operator(operator, f0)
    else:
        budget = _walk_budget(f0, cfg.alpha, cfg.tol)
        if budget > WALK_BUDGET_CAP:
            raise ValueError(f"the walk at alpha={cfg.alpha} and tol={cfg.tol} derives a "
                             f"budget of {budget} iterations, above the cap of "
                             f"{WALK_BUDGET_CAP}; lower alpha, raise tol or use the "
                             f"closed form")
        walk = diffuse_iterative(index.matrix, f0, cfg.alpha, budget, cfg.tol)
        if not walk.converged:
            stuck = [int(q) for q, ok in zip(query_ids, walk.column_converged) if not ok]
            raise ValueError(f"walk did not converge within its budget of {budget} "
                             f"iterations for queries {stuck}")
        scores = walk.state[index.sat_rows]
    return rank_satellites(scores, index.sat_ids, query_ids)
