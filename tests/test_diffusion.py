import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcd import dataspace as ds
from plcd import diffusion as diff
from plcd.config import RunConfig
from plcd.ranking import row_order
from plcd.seeds import substream
from harness import random_stochastic_matrix
from support import read_embeddings


def dcfg(**kw):
    """A run config with these tests' diffusion defaults (``k_init`` 10)."""
    return RunConfig(**{"k_init": 10, **kw})


def unit(v):
    return v / np.linalg.norm(v)


def closed_form(matrix, f0, alpha, cap=2000):
    """The closed-form limit at every node for an (n,) seed: all rows of the
    operator applied to it."""
    operator = diff.closed_form_operator(matrix, range(len(matrix)), alpha, cap)
    return diff.apply_operator(operator, f0[:, None])[:, 0]


def test_two_identical_nodes_are_mutual_neighbors():
    e = unit(np.array([1.0, 1.0]))
    index = diff.build_index([e], [e.copy()], [e], [2], dcfg(k_graph=1))
    assert np.allclose(index.matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert (index.sat_ids, index.sat_rows) == ([2], range(1, 2))


def test_columns_sum_to_one_on_random_graphs():
    for trial in range(20):
        rng = substream(trial, "diff.colsum")
        n_d, n_s = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        drones = [rng.standard_normal(6) for _ in range(n_d)]
        sats = [rng.standard_normal(6) for _ in range(n_s)]
        k = int(rng.integers(1, n_d + n_s - 1))
        matrix = diff.build_graph(drones + sats, k)
        sums = matrix.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert np.all(matrix >= 0.0)
        assert np.allclose(np.diag(matrix), 0.0)


def _brute_force_matrix(embs, k):
    """Independent construction straight from the full similarity matrix."""
    rows = np.stack([unit(e) for e in embs])
    sims = rows @ rows.T
    n = len(embs)
    affinity = np.zeros((n, n))
    neighbors = []
    for i in range(n):
        order = sorted((j for j in range(n) if j != i),
                       key=lambda j: (-sims[i, j], j))
        top = order[:k]
        neighbors.append(top)
        for j in top:
            affinity[i, j] = max(sims[i, j], 0.0)
    affinity = (affinity + affinity.T) / 2.0
    for j in range(n):
        if affinity[:, j].sum() <= 0.0:
            affinity[:, j] = 0.0
            affinity[neighbors[j], j] = 1.0 / k
    return affinity / affinity.sum(axis=0)


def test_build_graph_matches_brute_force():
    rng = substream(7, "diff.brute")
    embs = [rng.standard_normal(5) for _ in range(5)]
    k = 2
    assert np.allclose(diff.build_graph(embs, k), _brute_force_matrix(embs, k))


def test_build_graph_exact_ties_match_brute_force():
    # Duplicated and orthogonal rows give exactly equal similarities, so the
    # lowest-index rule picks among tied neighbors; the negated row's column
    # has only clamped weights and takes the uniform fallback.
    e = np.eye(3)
    embs = [e[0], e[1], e[0].copy(), e[0] + e[1], -e[0], e[2], e[1].copy(), e[2].copy()]
    for k in range(1, len(embs)):
        matrix = diff.build_graph(embs, k)
        expected = _brute_force_matrix(embs, k)
        assert np.array_equal(matrix > 0.0, expected > 0.0), k
        assert np.allclose(matrix, expected), k


def test_byte_identical_nodes_tie_exactly_in_gemm_tail_columns():
    # Four copies of a hub row that every node leans toward, one of them in
    # the last column: with k_graph=2 each other node must pick the two
    # lowest copies. The raw similarity product rounds the copies apart.
    rng = substream(9, "diff.copies")
    hub = rng.standard_normal(128)
    emb = hub + 0.9 * rng.standard_normal((950, 128))
    copies = [0, 317, 633, 949]
    emb[copies] = hub
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    matrix = diff.build_graph(emb, k_graph=2)
    others = [i for i in range(950) if i not in copies]
    assert not matrix[np.ix_(others, [633, 949])].any()
    assert (matrix[others, 0] > 0.0).all()
    assert same_bits(matrix, dense_graph_matrix(diff._normalized_rows(emb, "graph node"), 2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_k_picks_the_first_k_of_a_stable_descending_sort(data):
    # rows of coarse levels tie at the k-th value, normal rows do not, and one
    # matrix mixes both; -0.0 equals 0.0, and each row holds one -inf as a
    # graph's diagonal does
    draw = data.draw
    m, n = draw(st.integers(1, 12)), draw(st.integers(2, 30))
    k = draw(st.integers(1, n - 1))
    levels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coarse = rng.integers(-levels, levels + 1, size=(m, n)) / levels
    coarse[(coarse == 0.0) & (rng.random((m, n)) < 0.5)] = -0.0
    sims = np.where(rng.random((m, 1)) < 0.5, coarse, rng.standard_normal((m, n)))
    sims[np.arange(m), rng.integers(0, n, m)] = -np.inf
    stable = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    assert np.array_equal(diff._top_k(sims, k), np.sort(stable, axis=1))


def test_build_graph_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero-norm"):
        diff.build_graph([np.zeros(3), np.ones(3)], 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_embeddings_are_rejected_with_their_index(bad):
    good = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    poisoned = [good[0], np.array([bad, 1.0])]
    with pytest.raises(ValueError, match="non-finite embedding at graph node index 3"):
        diff.build_graph(good + poisoned, 1)
    with pytest.raises(ValueError, match=r"non-finite embedding at drone\(gd\) index 1"):
        diff.build_index(good, good, poisoned, [3, 4], dcfg(k_graph=1))
    cfg = dcfg(k_graph=1)
    index = diff.build_index(good, good, good, [3, 4], cfg)
    with pytest.raises(ValueError, match="non-finite embedding at query index 1"):
        diff.init_state(poisoned, index.drone_gd, cfg, len(index.matrix))
    with pytest.raises(ValueError, match="non-finite embedding at query index 1"):
        diff.query(index, cfg, [10, 11], poisoned)


def test_init_state_weights_and_support():
    cfg = dcfg(gamma=3.0, k_init=1)
    query = np.array([1.0, 0.0])
    drones = [np.array([0.5, np.sqrt(0.75)]), np.array([-1.0, 0.0])]
    f0 = diff.init_state([query], drones, cfg, total_nodes=4)[:, 0]
    # nearest drone has cosine 0.5 -> weight 0.5^3; everything else zero
    assert f0[0] == pytest.approx(0.125)
    assert np.all(f0[1:] == 0.0)


def test_init_state_clamps_negative_similarity():
    cfg = dcfg(k_init=2)
    query = np.array([1.0, 0.0])
    drones = [np.array([-1.0, 0.0]), np.array([0.0, 1.0])]
    f0 = diff.init_state([query], drones, cfg, total_nodes=3)
    assert f0.shape == (3, 1)
    assert np.all(f0 == 0.0)


def test_init_state_matches_per_query_loop():
    # the per-query sorted loop the batched top-k replaced, as the reference
    rng = substream(19, "diff.init_ref")
    cfg = dcfg(gamma=2.0, k_init=4)
    drones = [unit(rng.standard_normal(6)) for _ in range(9)]
    queries = [rng.standard_normal(6) for _ in range(5)]
    f0 = diff.init_state(queries, np.stack(drones), cfg, total_nodes=12)
    assert f0.shape == (12, 5)
    for j, q in enumerate(queries):
        sims = [float(d @ unit(q)) for d in drones]
        nearest = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:cfg.k_init]
        expected = np.zeros(12)
        for i in nearest:
            expected[i] = max(sims[i], 0.0) ** cfg.gamma
        assert np.allclose(f0[:, j], expected, rtol=1e-12, atol=0.0)


def reference_init_state(query_embs, drone_gd, cfg, total_nodes):
    """``init_state`` as it was before neighbour selection by partition: the
    first ``k_init`` drones of a stable descending sort of each column."""
    queries = np.array(query_embs, dtype=float, ndmin=2)
    norms = np.linalg.norm(queries, axis=1)
    queries = queries / np.where(norms < 1e-12, 1.0, norms)[:, None]
    sims = np.einsum("dk,qk->dq", drone_gd, queries)
    nearest = np.argsort(-sims, axis=0, kind="stable")[: cfg.k_init]
    cols = np.arange(sims.shape[1])
    f0 = np.zeros((total_nodes, sims.shape[1]))
    f0[nearest, cols] = np.maximum(sims[nearest, cols], 0.0) ** cfg.gamma
    return f0


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def grid_rows(draw, count, dim):
    """Rows from a coarse integer grid, some zeros negated to -0.0, so that
    rows repeat and similarities tie exactly."""
    rows = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                                  min_size=count, max_size=count)), dtype=float)
    flips = np.array(draw(st.lists(st.booleans(), min_size=rows.size, max_size=rows.size)))
    rows[(rows == 0.0) & flips.reshape(rows.shape)] = -0.0
    return rows


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_init_state_selects_like_a_stable_argsort(data):
    draw = data.draw
    dim, n_d = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    drones = grid_rows(draw, n_d, dim)
    drones[~drones.any(axis=1), 0] = 1.0  # drone rows are unit-normalized
    drone_gd = diff._normalized_rows(drones, "drone(gd)")
    queries = grid_rows(draw, draw(st.integers(1, 6)), dim)
    # k_init below, equal to and above the drone count
    cfg = dcfg(gamma=draw(st.sampled_from([1.0, 3.0])),
                               k_init=draw(st.integers(1, n_d + 2)))
    total = n_d + draw(st.integers(0, 3))
    f0 = diff.init_state(queries, drone_gd, cfg, total)
    assert same_bits(f0, reference_init_state(queries, drone_gd, cfg, total))


# ---------------------------------------------------------------------------
# byte oracles: the dense graph and operator formulas the one-buffer build
# replaced
# ---------------------------------------------------------------------------

def dense_top_k(sims, k):
    """``_top_k`` with the running-count tie rule on every row."""
    n = sims.shape[1]
    kth = np.partition(sims, n - k, axis=1)[:, [n - k]]
    above = sims > kth
    ties = sims == kth
    room = k - np.count_nonzero(above, axis=1)[:, None]
    chosen = above | (ties & (np.cumsum(ties, axis=1) <= room))
    return np.nonzero(chosen)[1].reshape(len(sims), k)


def dense_graph_matrix(emb, k):
    """Transition matrix of unit node rows ``emb``, built from a gathered
    copy of the similarities, a separate affinity and its transposed sum."""
    n = len(emb)
    _, first, inverse = np.unique(emb.view(np.dtype((np.void, emb.itemsize * emb.shape[1]))),
                                  return_index=True, return_inverse=True)
    sims = (emb @ emb.T)[:, first[inverse.ravel()]]
    np.fill_diagonal(sims, -np.inf)
    neighbors = dense_top_k(sims, k)
    rows = np.arange(n)[:, None]
    affinity = np.zeros((n, n))
    affinity[rows, neighbors] = np.maximum(sims[rows, neighbors], 0.0)
    affinity = (affinity + affinity.T) / 2.0
    col_sums = affinity.sum(axis=0)
    empty = np.flatnonzero(col_sums <= 0.0)
    if empty.size:
        affinity[:, empty] = 0.0
        affinity[neighbors[empty], empty[:, None]] = 1.0 / k
        col_sums[empty] = affinity[:, empty].sum(axis=0)
    return affinity / col_sums


def dense_closed_form_operator(matrix, rows, alpha):
    n = matrix.shape[0]
    picks = np.zeros((n, len(rows)))
    picks[rows, np.arange(len(rows))] = 1.0
    return np.ascontiguousarray(np.linalg.solve((np.eye(n) - alpha * matrix).T, picks).T)


GRAPH_CASES = ("random", "ties", "duplicates", "orthogonal", "negative")


def graph_nodes(kind, n, dim, rng):
    if kind == "ties":  # coarse levels: exactly equal similarities, -0.0 zeros
        rows = rng.integers(-2, 3, (n, dim)).astype(float)
        rows[~rows.any(axis=1), 0] = 1.0
        rows[(rows == 0.0) & (rng.random((n, dim)) < 0.5)] = -0.0
        return rows
    if kind == "orthogonal":  # signed one-hot rows: exact zero similarities
        rows = np.zeros((n, max(n, dim)))
        rows[np.arange(n), rng.permutation(rows.shape[1])[:n]] = rng.choice([-1.0, 1.0], n)
        return rows
    rows = rng.standard_normal((n, dim))
    if kind == "duplicates":  # byte-identical nodes
        rows[rng.integers(0, n, n // 2)] = rows[rng.integers(0, n, n // 2)]
    elif kind == "negative":  # a cluster and its opposite: all-negative rows
        hub = rng.standard_normal(dim)
        rows = 0.1 * rows + np.where(rng.random((n, 1)) < 0.2, -hub, hub)
    return rows


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(GRAPH_CASES), st.integers(2, 40), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.data())
def test_graph_and_operator_bytes_match_the_dense_formulas(kind, n, dim, seed, data):
    rng = np.random.default_rng(seed)
    nodes = graph_nodes(kind, n, dim, rng)
    n_drone = int(rng.integers(1, n))
    k = data.draw(st.one_of(st.just(n - 1), st.integers(1, n - 1)), label="k_graph")
    matrix = diff.build_graph(nodes, k)
    expected = dense_graph_matrix(diff._normalized_rows(nodes, "graph node"), k)
    assert same_bits(matrix, expected)

    alpha = data.draw(st.sampled_from([0.5, 0.9, 0.99]), label="alpha")
    sat_rows = range(n_drone, n)
    systems = []
    solve = np.linalg.solve
    with mock.patch.object(np.linalg, "solve",
                           side_effect=lambda a, b: systems.append(a) or solve(a, b)):
        operator = diff.closed_form_operator(matrix, sat_rows, alpha)
    # I - alpha * S itself, so a flipped zero sign shows even where the
    # solve would hide it
    assert same_bits(systems[0], (np.eye(n) - alpha * matrix).T)
    assert same_bits(operator, dense_closed_form_operator(matrix, sat_rows, alpha))


def test_graph_and_operator_stay_within_their_memory_budgets():
    # in n x n float64 arrays: the graph built in its similarity buffer peaks
    # near 2.3 (the dense build: 3.3), and the operator adds about 1.2 to the
    # matrix already held (eye, alpha * S and their difference: 2.05)
    n = 950
    nodes = graph_nodes("random", n, 128, substream(17, "diff.memory"))
    square = 8.0 * n * n
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        matrix = diff.build_graph(nodes, 10)
        graph_peak = (tracemalloc.get_traced_memory()[1] - held) / square
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        diff.closed_form_operator(matrix, range(900, n), 0.9)
        operator_peak = (tracemalloc.get_traced_memory()[1] - held) / square
    finally:
        tracemalloc.stop()
    assert graph_peak <= 2.5
    assert operator_peak <= 1.25


def test_iterative_identity_matrix_fixed_point():
    f0 = np.array([0.3, 0.7])
    result = diff.diffuse_iterative(np.eye(2), f0, alpha=0.5, max_iters=50,
                                    tol=1e-12)
    assert result.converged
    assert np.allclose(result.state, f0)


def test_hand_checkable_two_node_instance():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    f0 = np.array([1.0, 0.0])
    closed = closed_form(matrix, f0, alpha=0.5)
    assert np.allclose(closed, [4.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    iterative = diff.diffuse_iterative(matrix, f0, 0.5, max_iters=2000, tol=1e-15)
    assert iterative.converged
    # iterative limit is (1 - alpha) times the solver output, same ranking
    assert np.allclose(iterative.state / iterative.state.sum(),
                       closed / closed.sum(), atol=1e-9)


def test_alpha_to_zero_returns_f0():
    rng = substream(8, "diff.alpha")
    matrix = random_stochastic_matrix(6, rng)
    f0 = rng.uniform(0, 1, size=6)
    result = diff.diffuse_iterative(matrix, f0, alpha=1e-9, max_iters=100, tol=1e-15)
    assert np.allclose(result.state, f0, atol=1e-6)


def test_iterative_vs_closed_form_random_graphs():
    worst = 0.0
    for trial in range(25):
        rng = substream(trial, "diff.agree")
        n = int(rng.integers(2, 80))
        alpha = (0.5, 0.9, 0.99)[trial % 3]
        matrix = random_stochastic_matrix(n, rng)
        f0 = rng.uniform(0, 1, size=n)
        it = diff.diffuse_iterative(matrix, f0, alpha, max_iters=100000,
                                    tol=1e-13 * float(f0.max()))
        cf = closed_form(matrix, f0, alpha)
        gap = float(np.max(np.abs(it.state / it.state.sum() - cf / cf.sum())))
        worst = max(worst, gap)
    assert worst < 1e-6


def test_closed_form_zero_seed_and_linearity():
    rng = substream(9, "diff.linear")
    matrix = random_stochastic_matrix(8, rng)
    assert np.allclose(closed_form(matrix, np.zeros(8), 0.7), 0.0)
    f0 = rng.uniform(0, 1, size=8)
    once = closed_form(matrix, f0, 0.7)
    scaled = closed_form(matrix, 3.5 * f0, 0.7)
    assert np.allclose(scaled, 3.5 * once)


def test_closed_form_cap():
    matrix = random_stochastic_matrix(5, substream(10, "diff.cap"))
    with pytest.raises(ValueError, match="cap"):
        diff.closed_form_operator(matrix, [3, 4], 0.5, cap=4)


def test_nonconverged_flag():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    result = diff.diffuse_iterative(matrix, np.array([1.0, 0.0]), 0.99,
                                    max_iters=2, tol=1e-15)
    assert not result.converged
    assert result.iterations == 2


def test_columns_stop_at_their_own_iteration():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    f0 = np.array([[1.0, 0.5, 0.0], [0.0, 0.5, 0.0]])
    result = diff.diffuse_iterative(matrix, f0, 0.9, max_iters=1000, tol=1e-9)
    assert result.state.shape == (2, 3)
    # the uniform column is a fixed point and the zero column never moves
    assert result.column_iterations[1:].tolist() == [1, 1]
    alone = diff.diffuse_iterative(matrix, f0[:, 0], 0.9, max_iters=1000, tol=1e-9)
    assert alone.state.shape == (2,)
    assert result.column_iterations[0] == alone.iterations > 1
    assert np.allclose(result.state[:, 0], alone.state, rtol=1e-12, atol=0.0)
    assert result.iterations == alone.iterations + 2
    assert isinstance(result.iterations, int) and isinstance(result.converged, bool)
    assert result.converged
    # on a retrieval-sized graph a column walked alone takes as many
    # iterations and orders the satellites the same way, though the block
    # product leaves other low bits in its state
    index, cfg, queries = retrieval_case(5, n_drone=300, n_sat=80, n_query=200)
    f0 = diff.init_state(queries, index.drone_gd, cfg, len(index.matrix))
    sat_idx, sat_ids = index.sat_rows, index.sat_ids
    for alpha in (0.5, 0.9):
        batch = diff.diffuse_iterative(index.matrix, f0, alpha, 1000, 1e-9)
        assert batch.converged
        for j in range(0, 200, 10):
            alone = diff.diffuse_iterative(index.matrix, f0[:, j], alpha, 1000, 1e-9)
            assert alone.iterations == batch.column_iterations[j]
            assert np.array_equal(row_order(alone.state[sat_idx][None], sat_ids),
                                  row_order(batch.state[sat_idx, j][None], sat_ids))


def reference_walk(matrix, f0, alpha, max_iters, tol):
    """The restarted walk, each column with its own state, stopping
    iteration and flag. The product is taken on the block of columns still
    walking, the same block ``diffuse_iterative`` multiplies, so BLAS sums
    every entry in the same order."""
    f = np.array(f0, dtype=float).reshape(len(f0), -1)
    restart = [(1.0 - alpha) * f[:, j] for j in range(f.shape[1])]
    iterations, converged = [max_iters] * f.shape[1], [False] * f.shape[1]
    walking = list(range(f.shape[1]))
    for it in range(1, max_iters + 1):
        if not walking:
            break
        product = matrix @ f[:, walking]
        still = []
        for j, column in zip(walking, product.T):
            nxt = alpha * column + restart[j]
            if np.max(np.abs(nxt - f[:, j])) < tol:
                iterations[j], converged[j] = it, True
            else:
                still.append(j)
            f[:, j] = nxt
        walking = still
    return f[:, 0] if f0.ndim == 1 else f, iterations, converged


@st.composite
def walk_case(draw):
    """A small column-stochastic matrix and start columns from an integer
    grid. One column is repeated, so two columns stop on the same
    iteration; a zero column stops at once; a tight ``tol`` with a small
    ``max_iters`` leaves columns walking to the end."""
    n = draw(st.integers(2, 6))
    weights = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                     min_size=n, max_size=n)), dtype=float)
    weights[:, ~weights.any(axis=0)] = 1.0
    matrix = weights / weights.sum(axis=0)
    columns = draw(st.lists(st.lists(st.integers(0, 9), min_size=n, max_size=n),
                            min_size=1, max_size=5))
    f0 = np.array(columns + [columns[0], [0] * n], dtype=float).T
    if draw(st.integers(0, 3)) == 0:
        f0 = f0[:, 0]
    return (matrix, f0, draw(st.sampled_from([0.3, 0.5, 0.9])),
            draw(st.integers(1, 60)), draw(st.sampled_from([1e-2, 1e-6, 1e-12])))


@settings(max_examples=300, deadline=None)
@given(walk_case())
def test_walk_matches_a_per_column_reference(case):
    matrix, f0, alpha, max_iters, tol = case
    result = diff.diffuse_iterative(matrix, f0, alpha, max_iters, tol)
    state, iterations, converged = reference_walk(matrix, f0, alpha, max_iters, tol)
    assert same_bits(result.state, state)
    assert result.column_iterations.tolist() == iterations
    assert result.column_converged.tolist() == converged


def test_query_reports_unconverged_walks(monkeypatch):
    # the derived budget always suffices in exact arithmetic; a budget of 2
    # stands in for a walk that rounding keeps from stopping
    monkeypatch.setattr(diff, "_walk_budget", lambda f0, alpha, tol: 2)
    rng = substream(17, "diff.stuck")
    drones = [rng.standard_normal(4) for _ in range(6)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    cfg = dcfg(k_graph=3, k_init=2, closed_form=False)
    index = diff.build_index(drones, sats, drones, [7, 8, 9], cfg)
    with pytest.raises(ValueError, match=r"budget of 2 iterations for queries \[40, 41\]"):
        diff.query(index, cfg, [40, 41], [rng.standard_normal(4) for _ in range(2)])


@pytest.mark.parametrize("family", ["dense", "sparse", "ring"])
def test_walk_stops_within_its_derived_budget(family):
    """The budget holds on slowly mixing graphs too, and it never moves the
    iteration a column stops at. Columns: uniform seeds, a few seeds as
    ``init_state`` places them, and a zero column."""
    for trial in range(12):
        rng = substream(trial, f"diff.budget.{family}")
        n = int(rng.integers(5, 120))
        alpha = (0.5, 0.9, 0.95, 0.99)[trial % 4]
        matrix = random_stochastic_matrix(n, rng, family=family)
        f0 = np.zeros((n, 3))
        f0[:, 0] = rng.uniform(0.0, 1.0, size=n)
        f0[rng.choice(n, size=4, replace=False), 1] = rng.uniform(0.0, 1.0, size=4)
        tol = (1e-9, 1e-13 * float(f0.max()))[trial % 2]
        budget = diff._walk_budget(f0, alpha, tol)
        walk = diff.diffuse_iterative(matrix, f0, alpha, budget, tol)
        assert walk.converged
        assert walk.column_iterations[2] == 1
        longer = diff.diffuse_iterative(matrix, f0, alpha, 10 * budget, tol)
        assert np.array_equal(walk.column_iterations, longer.column_iterations)


def test_walk_budget_on_hand_checkable_seeds():
    assert diff._walk_budget(np.zeros((4, 2)), 0.9, 1e-9) == 1
    assert diff._walk_budget(np.zeros((4, 0)), 0.9, 1e-9) == 1
    # ln(1e-9 / 2) / ln(0.5) = 30.9: the step at iteration 31 is below tol
    assert diff._walk_budget(np.array([1.0, 0.0]), 0.5, 1e-9) == 31


def test_a_slowly_mixing_walk_runs_to_its_limit():
    """24 drones and 8 satellites evenly spaced on one circle, each linked to
    its 2 nearest nodes: at alpha 0.99 the walk needs about 1500 iterations,
    more than a fixed budget of 1000 gave it. It ranks the satellites as the
    closed form does, whose scores are the walk's over (1 - alpha)."""
    theta = 2 * np.pi * np.arange(32) / 32
    nodes = np.stack([np.cos(theta), np.sin(theta), np.full(32, 0.1)], axis=1)
    is_sat = np.arange(32) % 4 == 0
    cfg = dcfg(k_graph=2, k_init=2, alpha=0.99, closed_form=False)
    index = diff.build_index(nodes[~is_sat], nodes[is_sat], nodes[~is_sat],
                             list(range(100, 108)), cfg)
    theta = 2 * np.pi * (np.arange(5) + 0.3) / 5
    queries = list(np.stack([np.cos(theta), np.sin(theta), np.full(5, 0.1)], axis=1))
    ids = list(range(len(queries)))
    f0 = diff.init_state(queries, index.drone_gd, cfg, len(index.matrix))
    assert diff.diffuse_iterative(index.matrix, f0, cfg.alpha, 10**5,
                                  cfg.tol).column_iterations.max() > 1000
    walked = diff.query(index, cfg, ids, queries)
    solved = diff.query(index, replace(cfg, closed_form=True), ids, queries)
    tol = 10 * cfg.tol / (1.0 - cfg.alpha)
    for walk, solve in zip(walked, solved):
        limit = dict(zip(solve.gallery_ids, (1.0 - cfg.alpha) * np.array(solve.scores)))
        expected = [limit[g] for g in walk.gallery_ids]
        assert np.allclose(walk.scores, expected, rtol=0.0, atol=tol)
        assert all(a >= b - tol for a, b in zip(expected, expected[1:]))


def test_nonnegativity_preserved():
    rng = substream(11, "diff.nonneg")
    matrix = random_stochastic_matrix(10, rng)
    f0 = rng.uniform(0, 1, size=10)
    f = f0.copy()
    for _ in range(30):
        f = 0.9 * (matrix @ f) + 0.1 * f0
        assert np.all(f >= 0.0)


def test_rank_satellites_orders_and_flags():
    sat_scores = np.array([[0.2, 0.0], [0.9, 0.0]])
    ranking, degenerate = diff.rank_satellites(sat_scores, [9, 5], query_ids=[1, 2])
    assert (ranking.query_id, ranking.gallery_ids) == (1, [5, 9])
    assert not ranking.degenerate
    assert degenerate.query_id == 2
    assert degenerate.degenerate
    assert degenerate.gallery_ids == [5, 9]  # id tie rule


def test_node_relabeling_leaves_ranking_unchanged():
    rng = substream(12, "diff.perm")
    drones = [rng.standard_normal(4) for _ in range(6)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    gd = [rng.standard_normal(4) for _ in range(6)]
    query = rng.standard_normal(4)
    cfg = dcfg(k_graph=4, k_init=3)
    index = diff.build_index(drones, sats, gd, [7, 8, 9], cfg)
    [base] = diff.query(index, cfg, [0], [query])
    perm = [3, 0, 5, 1, 4, 2]
    index2 = diff.build_index([drones[i] for i in perm], sats,
                              [gd[i] for i in perm], [7, 8, 9], cfg)
    [other] = diff.query(index2, cfg, [0], [query])
    assert base.gallery_ids == other.gallery_ids
    assert np.allclose(base.scores, other.scores)


def test_index_without_drones_is_refused():
    # no walk from a ground query reaches a satellite without drone nodes
    sats = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    with pytest.raises(ValueError, match="at least one drone node"):
        diff.build_index([], sats, [], [7, 8, 9], dcfg())


def test_index_without_satellites_is_refused():
    drones = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    with pytest.raises(ValueError, match="at least one satellite node"):
        diff.build_index(drones, [], drones, [], dcfg(k_graph=1))


def test_index_refuses_seeding_rows_that_miss_drone_nodes():
    # one gd-space row per drone node, or the walk seeds the wrong nodes
    rng = substream(18, "diff.seed_rows")
    drones = [rng.standard_normal(4) for _ in range(4)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    for gd in (drones[:3], drones + [sats[0]]):
        with pytest.raises(ValueError, match=f"{len(gd)} gd-space drone rows for 4 drone nodes"):
            diff.build_index(drones, sats, gd, [7, 8, 9], dcfg(k_graph=2))


def test_index_refuses_ids_that_miss_satellite_nodes():
    # one id per satellite node, or the first query fails to rank the gallery
    rng = substream(18, "diff.sat_ids")
    drones = [rng.standard_normal(4) for _ in range(4)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    for ids in ([7, 8], [7, 8, 9, 10]):
        with pytest.raises(ValueError, match=f"^{len(ids)} satellite ids for 3 satellite nodes$"):
            diff.build_index(drones, sats, drones, ids, dcfg(k_graph=2))


def test_query_cache_reuse_is_pure():
    rng = substream(14, "diff.pure")
    drones = [rng.standard_normal(4) for _ in range(5)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    gd = [rng.standard_normal(4) for _ in range(5)]
    cfg = dcfg(k_graph=3, k_init=2)
    queries = [rng.standard_normal(4) for _ in range(4)]
    shared_index = diff.build_index(drones, sats, gd, [6, 7, 8], cfg)
    for qid, q in enumerate(queries):
        [cached] = diff.query(shared_index, cfg, [qid], [q])
        [rebuilt] = diff.query(diff.build_index(drones, sats, gd, [6, 7, 8], cfg),
                               cfg, [qid], [q])
        assert cached.gallery_ids == rebuilt.gallery_ids
        assert np.allclose(cached.scores, rebuilt.scores)


def retrieval_case(seed, n_drone=120, n_sat=40, n_query=25, dim=6, **cfg_kw):
    rng = substream(seed, "diff.operator")
    drones = rng.standard_normal((n_drone, dim))
    drones[7] = drones[3]  # a duplicated drone and satellite: exact ties
    sats = rng.standard_normal((n_sat, dim))
    sats[5] = sats[2]
    gd = rng.standard_normal((n_drone, dim))
    cfg = dcfg(**{"k_graph": 8, "k_init": 6, **cfg_kw})
    index = diff.build_index(list(drones), list(sats), list(gd),
                             list(range(1000, 1000 + n_sat)), cfg)
    return index, cfg, list(rng.standard_normal((n_query, dim)))


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
def test_operator_scores_match_a_full_solve(alpha):
    index, cfg, queries = retrieval_case(21, alpha=alpha)
    n = len(index.matrix)
    f0 = diff.init_state(queries, index.drone_gd, cfg, n)
    full = np.linalg.solve(np.eye(n) - alpha * index.matrix, f0)
    sat_idx = index.sat_rows
    rankings = diff.query(index, cfg, list(range(len(queries))), queries)
    for j, ranking in enumerate(rankings):
        tol = 1e-12 * float(f0[:, j].max()) / (1.0 - alpha)
        reference = dict(zip(index.sat_ids, full[sat_idx, j]))
        expected = [reference[g] for g in ranking.gallery_ids]
        assert np.allclose(ranking.scores, expected, rtol=0.0, atol=tol)
        # the same order as the solve's, except among scores tied within tol
        assert all(a >= b - tol for a, b in zip(expected, expected[1:]))


def test_operator_scores_are_bit_identical_batched_and_alone():
    index, cfg, queries = retrieval_case(22)
    batched = diff.query(index, cfg, list(range(len(queries))), queries)
    for qid, (q, ranking) in enumerate(zip(queries, batched)):
        [alone] = diff.query(index, cfg, [qid], [q])
        assert alone.gallery_ids == ranking.gallery_ids
        assert alone.scores == ranking.scores


def test_operator_is_solved_once_per_index_and_alpha(monkeypatch):
    index, cfg, queries = retrieval_case(23)
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append(b.shape) or solve(a, b))
    first = diff.query(index, cfg, [0, 1], queries[:2])
    diff.query(index, cfg, [2, 3, 4], queries[2:5])
    assert solves == [(len(index.matrix), len(index.sat_ids))]
    diff.query(index, replace(cfg, alpha=0.5), [0], queries[:1])
    diff.query(index, replace(cfg, alpha=0.5), [0], queries[:1])
    again = diff.query(index, cfg, [0, 1], queries[:2])
    assert len(solves) == 2 and sorted(index.operators) == [0.5, cfg.alpha]
    assert [r.scores for r in again] == [r.scores for r in first]
    walk = replace(index, operators={})
    diff.query(walk, replace(cfg, closed_form=False), [0], queries[:1])
    assert len(solves) == 2 and not walk.operators


def test_alpha_sweep_on_a_shared_index_equals_fresh_indexes():
    shared, cfg, queries = retrieval_case(24)
    ids = list(range(len(queries)))
    for alpha in (0.5, 0.7, 0.9):
        fresh, fresh_cfg, _ = retrieval_case(24, alpha=alpha)
        swept = diff.query(shared, replace(cfg, alpha=alpha), ids, queries)
        alone = diff.query(fresh, fresh_cfg, ids, queries)
        assert [(r.gallery_ids, r.scores) for r in swept] == \
            [(r.gallery_ids, r.scores) for r in alone]


def test_query_above_the_cap_raises(monkeypatch):
    monkeypatch.setattr(diff, "CLOSED_FORM_CAP", 39)
    index, cfg, queries = retrieval_case(25, n_drone=30, n_sat=10)
    with pytest.raises(ValueError, match="graph size 40 exceeds the direct-solve cap 39"):
        diff.query(index, cfg, [0], queries[:1])
    assert not index.operators


def test_query_refuses_a_walk_budget_above_its_cap(monkeypatch):
    """Alpha just below 1 derives a budget no walk ends; the query refuses
    it before the first iteration, and the closed form still ranks."""
    def no_walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(diff, "diffuse_iterative", no_walk)
    index, cfg, queries = retrieval_case(26)
    alpha = float(np.nextafter(1.0, 0.0))
    walk = replace(cfg, alpha=alpha, closed_form=False)
    budget = diff._walk_budget(diff.init_state(queries[:1], index.drone_gd, walk,
                                               len(index.matrix)), alpha, walk.tol)
    assert budget > diff.WALK_BUDGET_CAP
    with pytest.raises(ValueError, match=rf"alpha={alpha!r} and tol={walk.tol!r} derives a "
                                         rf"budget of {budget} iterations, above the cap "
                                         rf"of {diff.WALK_BUDGET_CAP}"):
        diff.query(index, walk, [0], queries[:1])
    assert len(diff.query(index, replace(walk, closed_form=True), [0], queries[:1])) == 1


@st.composite
def small_retrieval(draw):
    """A small index and query batch. Embeddings come from a coarse integer
    grid, so duplicated rows (and with them exactly tied similarities) are
    common."""
    dim = draw(st.integers(2, 3))
    vec = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    n_d, n_s = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    drones = [np.array(v, dtype=float) for v in draw(st.lists(vec, min_size=n_d, max_size=n_d))]
    sats = [np.array(v, dtype=float) for v in draw(st.lists(vec, min_size=n_s, max_size=n_s))]
    gd = [np.array(v, dtype=float) for v in draw(st.lists(vec, min_size=n_d, max_size=n_d))]
    queries = [np.array(v, dtype=float) for v in draw(st.lists(vec, min_size=1, max_size=5))]
    cfg = dcfg(
        alpha=draw(st.sampled_from([0.5, 0.9])), k_graph=draw(st.integers(1, n_d + n_s - 1)),
        k_init=draw(st.integers(1, n_d + 1)), closed_form=draw(st.booleans()))
    index = diff.build_index(drones, sats, gd, list(range(100, 100 + n_s)), cfg)
    return index, cfg, queries


@settings(max_examples=150, deadline=None)
@given(small_retrieval())
def test_one_batched_call_ranks_like_one_call_per_query(case):
    """Every query gets the same start vector in a batch as alone. The solve
    and the walk then agree to rounding: scores within 1e-12 of the query's
    largest node weight, and the same order except among scores tied within
    that tolerance (duplicated satellites, or unreachable ones that carry
    only rounding noise)."""
    index, cfg, queries = case
    f0 = diff.init_state(queries, index.drone_gd, cfg, len(index.matrix))
    ids = list(range(len(queries)))
    batched = diff.query(index, cfg, ids, queries)
    for qid, q, ranking in zip(ids, queries, batched):
        alone_f0 = diff.init_state([q], index.drone_gd, cfg, len(index.matrix))
        assert np.array_equal(f0[:, [qid]], alone_f0)
        [alone] = diff.query(index, cfg, [qid], [q])
        assert ranking.query_id == alone.query_id
        assert sorted(ranking.gallery_ids) == sorted(alone.gallery_ids)
        tol = 1e-12 * float(f0[:, qid].max()) / (1.0 - cfg.alpha)
        score = dict(zip(alone.gallery_ids, alone.scores))
        assert np.allclose(ranking.scores, [score[g] for g in ranking.gallery_ids],
                           rtol=0.0, atol=tol)
        in_batch_order = [score[g] for g in ranking.gallery_ids]
        assert all(a >= b - tol for a, b in zip(in_batch_order, in_batch_order[1:]))
    walk = diff.diffuse_iterative(index.matrix, f0, cfg.alpha, 1000, cfg.tol)
    per_column = [diff.diffuse_iterative(index.matrix, f0[:, j], cfg.alpha,
                                         1000, cfg.tol).iterations
                  for j in range(len(queries))]
    assert walk.column_iterations.tolist() == per_column


def test_satellite_weight_iff_reachable():
    # BFS reachability from the initialized drones must match positive mass
    rng = substream(15, "diff.reach")
    for trial in range(10):
        n_d, n_s = 6, 3
        drones = [rng.standard_normal(4) for _ in range(n_d)]
        sats = [rng.standard_normal(4) for _ in range(n_s)]
        gd = [rng.standard_normal(4) for _ in range(n_d)]
        cfg = dcfg(k_graph=2, k_init=2)
        index = diff.build_index(drones, sats, gd, list(range(10, 10 + n_s)), cfg)
        query = rng.standard_normal(4)
        f0 = diff.init_state([query], index.drone_gd, cfg, len(index.matrix))[:, 0]
        state = closed_form(index.matrix, f0, cfg.alpha)
        adjacency = index.matrix > 0
        frontier = set(np.nonzero(f0 > 0)[0])
        seen = set(frontier)
        while frontier:
            nxt = set()
            for i in frontier:
                nxt |= set(np.nonzero(adjacency[:, i])[0])
            frontier = nxt - seen
            seen |= nxt
        for node in range(len(index.matrix)):
            if node in seen:
                assert state[node] > 0.0
            else:
                assert state[node] == pytest.approx(0.0, abs=1e-15)


def test_embedding_exchange_round_trip(tmp_path):
    rng = substream(16, "diff.emb")
    entries = [(1, "G", 4, rng.standard_normal(5)),
               (2, "D", 0, rng.standard_normal(5)),
               (3, "S", 4, rng.standard_normal(5))]
    path = tmp_path / "emb.txt"
    ds.write_embeddings(path, entries)
    header = path.read_text().splitlines()[0]
    assert header == "#plcd-emb v1 3 5"
    loaded = read_embeddings(path)
    for (rid, view, lm, vec), (rid2, view2, lm2, vec2) in zip(entries, loaded):
        assert (rid, view, lm) == (rid2, view2, lm2)
        assert np.array_equal(vec, vec2)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_embedding_file_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "emb.txt"
    ds.write_embeddings(path, [(1, "G", 4, np.ones(3)), (7, "S", 4, np.ones(3))])
    path.write_text(path.read_text().replace("7 S 4 1.0", f"7 S 4 {bad}"))
    with pytest.raises(ValueError, match=r"emb\.txt: entry 7 has a non-finite value"):
        read_embeddings(path)
