import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcd import diffusion as diff
from plcd.checks import random_stochastic_matrix
from plcd.seeds import substream


def unit(v):
    return v / np.linalg.norm(v)


def test_two_identical_nodes_are_mutual_neighbors():
    e = unit(np.array([1.0, 1.0]))
    graph = diff.build_graph([e], [e.copy()], [1], [2], k_graph=1)
    assert np.allclose(graph.matrix, [[0.0, 1.0], [1.0, 0.0]])
    assert graph.node_views == ["D", "S"]


def test_columns_sum_to_one_on_random_graphs():
    for trial in range(20):
        rng = substream(trial, "diff.colsum")
        n_d, n_s = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        drones = [rng.standard_normal(6) for _ in range(n_d)]
        sats = [rng.standard_normal(6) for _ in range(n_s)]
        k = int(rng.integers(1, n_d + n_s - 1))
        graph = diff.build_graph(drones, sats, list(range(n_d)),
                                 list(range(100, 100 + n_s)), k)
        sums = graph.matrix.sum(axis=0)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert np.all(graph.matrix >= 0.0)
        assert np.allclose(np.diag(graph.matrix), 0.0)


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
    graph = diff.build_graph(embs[:3], embs[3:], [0, 1, 2], [3, 4], k)
    assert np.allclose(graph.matrix, _brute_force_matrix(embs, k))


def test_build_graph_exact_ties_match_brute_force():
    # Duplicated and orthogonal rows give exactly equal similarities, so the
    # lowest-index rule picks among tied neighbors; the negated row's column
    # has only clamped weights and takes the uniform fallback.
    e = np.eye(3)
    embs = [e[0], e[1], e[0].copy(), e[0] + e[1], -e[0], e[2], e[1].copy(), e[2].copy()]
    for k in range(1, len(embs)):
        graph = diff.build_graph(embs[:5], embs[5:], list(range(5)), [5, 6, 7], k)
        expected = _brute_force_matrix(embs, k)
        assert np.array_equal(graph.matrix > 0.0, expected > 0.0), k
        assert np.allclose(graph.matrix, expected), k


def test_build_graph_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero-norm"):
        diff.build_graph([np.zeros(3)], [np.ones(3)], [1], [2], 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_embeddings_are_rejected_with_their_index(bad):
    good = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    poisoned = [good[0], np.array([bad, 1.0])]
    with pytest.raises(ValueError, match="non-finite embedding at graph node index 3"):
        diff.build_graph(good, poisoned, [1, 2], [3, 4], 1)
    with pytest.raises(ValueError, match=r"non-finite embedding at drone\(gd\) index 1"):
        diff.build_index(good, good, poisoned, [1, 2], [3, 4], diff.DiffusionConfig(k_graph=1))
    index = diff.build_index(good, good, good, [1, 2], [3, 4], diff.DiffusionConfig(k_graph=1))
    with pytest.raises(ValueError, match="non-finite embedding at query index 1"):
        diff.init_state(poisoned, index.drone_gd, index.cfg, index.graph.size)
    with pytest.raises(ValueError, match="non-finite embedding at query index 1"):
        diff.query(index, [10, 11], poisoned)


def test_init_state_weights_and_support():
    cfg = diff.DiffusionConfig(gamma=3.0, k_init=1)
    query = np.array([1.0, 0.0])
    drones = [np.array([0.5, np.sqrt(0.75)]), np.array([-1.0, 0.0])]
    f0 = diff.init_state([query], drones, cfg, total_nodes=4)[:, 0]
    # nearest drone has cosine 0.5 -> weight 0.5^3; everything else zero
    assert f0[0] == pytest.approx(0.125)
    assert np.all(f0[1:] == 0.0)


def test_init_state_clamps_negative_similarity():
    cfg = diff.DiffusionConfig(k_init=2)
    query = np.array([1.0, 0.0])
    drones = [np.array([-1.0, 0.0]), np.array([0.0, 1.0])]
    f0 = diff.init_state([query], drones, cfg, total_nodes=3)
    assert f0.shape == (3, 1)
    assert np.all(f0 == 0.0)


def test_init_state_matches_per_query_loop():
    # the per-query sorted loop the batched top-k replaced, as the reference
    rng = substream(19, "diff.init_ref")
    cfg = diff.DiffusionConfig(gamma=2.0, k_init=4)
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


def test_init_state_requires_drones():
    with pytest.raises(ValueError, match="drone"):
        diff.init_state(np.ones(2), [], diff.DiffusionConfig(), 3)


def test_iterative_identity_matrix_fixed_point():
    f0 = np.array([0.3, 0.7])
    result = diff.diffuse_iterative(np.eye(2), f0, alpha=0.5, max_iters=50,
                                    tol=1e-12)
    assert result.converged
    assert np.allclose(result.state, f0)


def test_hand_checkable_two_node_instance():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    f0 = np.array([1.0, 0.0])
    closed = diff.diffuse_closed_form(matrix, f0, alpha=0.5)
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
        cf = diff.diffuse_closed_form(matrix, f0, alpha)
        gap = float(np.max(np.abs(it.state / it.state.sum() - cf / cf.sum())))
        worst = max(worst, gap)
    assert worst < 1e-6


def test_closed_form_zero_seed_and_linearity():
    rng = substream(9, "diff.linear")
    matrix = random_stochastic_matrix(8, rng)
    assert np.allclose(diff.diffuse_closed_form(matrix, np.zeros(8), 0.7), 0.0)
    f0 = rng.uniform(0, 1, size=8)
    once = diff.diffuse_closed_form(matrix, f0, 0.7)
    scaled = diff.diffuse_closed_form(matrix, 3.5 * f0, 0.7)
    assert np.allclose(scaled, 3.5 * once)


def test_closed_form_cap():
    matrix = random_stochastic_matrix(5, substream(10, "diff.cap"))
    with pytest.raises(ValueError, match="cap"):
        diff.diffuse_closed_form(matrix, np.ones(5), 0.5, cap=4)


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


def test_query_reports_unconverged_walks():
    rng = substream(17, "diff.stuck")
    drones = [rng.standard_normal(4) for _ in range(6)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    cfg = diff.DiffusionConfig(k_graph=3, k_init=2, closed_form=False, max_iters=2)
    index = diff.build_index(drones, sats, drones, list(range(6)), [7, 8, 9], cfg)
    with pytest.raises(ValueError, match=r"max_iters=2 for queries \[40, 41\]"):
        diff.query(index, [40, 41], [rng.standard_normal(4) for _ in range(2)])


def test_nonnegativity_preserved():
    rng = substream(11, "diff.nonneg")
    matrix = random_stochastic_matrix(10, rng)
    f0 = rng.uniform(0, 1, size=10)
    f = f0.copy()
    for _ in range(30):
        f = 0.9 * (matrix @ f) + 0.1 * f0
        assert np.all(f >= 0.0)


def test_rank_satellites_orders_and_flags():
    graph = diff.TransitionGraph(matrix=np.zeros((4, 4)), node_ids=[7, 3, 9, 5],
                                 node_views=["D", "D", "S", "S"])
    states = np.array([[0.5, 0.0], [0.1, 0.0], [0.2, 0.0], [0.9, 0.0]])
    ranking, degenerate = diff.rank_satellites(states, graph, query_ids=[1, 2])
    assert (ranking.query_id, ranking.gallery_ids) == (1, [5, 9])
    assert not ranking.degenerate
    assert degenerate.query_id == 2
    assert degenerate.degenerate
    assert degenerate.gallery_ids == [5, 9]  # id tie rule


def test_rank_satellites_requires_satellite_nodes():
    graph = diff.TransitionGraph(matrix=np.zeros((2, 2)), node_ids=[1, 2],
                                 node_views=["D", "D"])
    with pytest.raises(ValueError, match="satellite"):
        diff.rank_satellites(np.zeros((2, 1)), graph, [1])


def test_node_relabeling_leaves_ranking_unchanged():
    rng = substream(12, "diff.perm")
    drones = [rng.standard_normal(4) for _ in range(6)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    gd = [rng.standard_normal(4) for _ in range(6)]
    query = rng.standard_normal(4)
    cfg = diff.DiffusionConfig(k_graph=4, k_init=3)
    index = diff.build_index(drones, sats, gd, [1, 2, 3, 4, 5, 6], [7, 8, 9], cfg)
    [base] = diff.query(index, [0], [query])
    perm = [3, 0, 5, 1, 4, 2]
    index2 = diff.build_index([drones[i] for i in perm], sats,
                              [gd[i] for i in perm],
                              [[1, 2, 3, 4, 5, 6][i] for i in perm], [7, 8, 9], cfg)
    [other] = diff.query(index2, [0], [query])
    assert base.gallery_ids == other.gallery_ids
    assert np.allclose(base.scores, other.scores)


def test_query_without_drones_degenerates():
    rng = substream(13, "diff.nodrone")
    sats = [rng.standard_normal(4) for _ in range(3)]
    cfg = diff.DiffusionConfig()
    index = diff.build_index([], sats, [], [], [7, 8, 9], cfg)
    rankings = diff.query(index, [0, 1], [rng.standard_normal(4) for _ in range(2)])
    assert [r.query_id for r in rankings] == [0, 1]
    for ranking in rankings:
        assert ranking.degenerate
        assert ranking.gallery_ids == [7, 8, 9]
        assert all(s == 0.0 for s in ranking.scores)


def test_query_cache_reuse_is_pure():
    rng = substream(14, "diff.pure")
    drones = [rng.standard_normal(4) for _ in range(5)]
    sats = [rng.standard_normal(4) for _ in range(3)]
    gd = [rng.standard_normal(4) for _ in range(5)]
    cfg = diff.DiffusionConfig(k_graph=3, k_init=2)
    queries = [rng.standard_normal(4) for _ in range(4)]
    shared_index = diff.build_index(drones, sats, gd, [1, 2, 3, 4, 5],
                                    [6, 7, 8], cfg)
    for qid, q in enumerate(queries):
        [cached] = diff.query(shared_index, [qid], [q])
        [rebuilt] = diff.query(diff.build_index(drones, sats, gd, [1, 2, 3, 4, 5],
                                                [6, 7, 8], cfg), [qid], [q])
        assert cached.gallery_ids == rebuilt.gallery_ids
        assert np.allclose(cached.scores, rebuilt.scores)


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
    cfg = diff.DiffusionConfig(
        alpha=draw(st.sampled_from([0.5, 0.9])), k_graph=draw(st.integers(1, n_d + n_s - 1)),
        k_init=draw(st.integers(1, n_d + 1)), closed_form=draw(st.booleans()))
    index = diff.build_index(drones, sats, gd, list(range(n_d)),
                             list(range(100, 100 + n_s)), cfg)
    return index, queries


@settings(max_examples=150, deadline=None)
@given(small_retrieval())
def test_one_batched_call_ranks_like_one_call_per_query(case):
    """Every query gets the same start vector in a batch as alone. The solve
    and the walk then agree to rounding: scores within 1e-12 of the query's
    largest node weight, and the same order except among scores tied within
    that tolerance (duplicated satellites, or unreachable ones that carry
    only rounding noise)."""
    index, queries = case
    cfg = index.cfg
    f0 = diff.init_state(queries, index.drone_gd, cfg, index.graph.size)
    ids = list(range(len(queries)))
    batched = diff.query(index, ids, queries)
    for qid, q, ranking in zip(ids, queries, batched):
        alone_f0 = diff.init_state([q], index.drone_gd, cfg, index.graph.size)
        assert np.array_equal(f0[:, [qid]], alone_f0)
        [alone] = diff.query(index, [qid], [q])
        assert ranking.query_id == alone.query_id
        assert sorted(ranking.gallery_ids) == sorted(alone.gallery_ids)
        tol = 1e-12 * float(f0[:, qid].max()) / (1.0 - cfg.alpha)
        score = dict(zip(alone.gallery_ids, alone.scores))
        assert np.allclose(ranking.scores, [score[g] for g in ranking.gallery_ids],
                           rtol=0.0, atol=tol)
        in_batch_order = [score[g] for g in ranking.gallery_ids]
        assert all(a >= b - tol for a, b in zip(in_batch_order, in_batch_order[1:]))
    walk = diff.diffuse_iterative(index.graph.matrix, f0, cfg.alpha, cfg.max_iters, cfg.tol)
    per_column = [diff.diffuse_iterative(index.graph.matrix, f0[:, j], cfg.alpha,
                                         cfg.max_iters, cfg.tol).iterations
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
        cfg = diff.DiffusionConfig(k_graph=2, k_init=2)
        index = diff.build_index(drones, sats, gd, list(range(n_d)),
                                 list(range(10, 10 + n_s)), cfg)
        query = rng.standard_normal(4)
        f0 = diff.init_state([query], index.drone_gd, cfg, index.graph.size)[:, 0]
        state = diff.diffuse_closed_form(index.graph.matrix, f0, cfg.alpha)
        adjacency = index.graph.matrix > 0
        frontier = set(np.nonzero(f0 > 0)[0])
        seen = set(frontier)
        while frontier:
            nxt = set()
            for i in frontier:
                nxt |= set(np.nonzero(adjacency[:, i])[0])
            frontier = nxt - seen
            seen |= nxt
        for node in range(index.graph.size):
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
    diff.write_embeddings(path, entries)
    header = path.read_text().splitlines()[0]
    assert header == "#plcd-emb v1 3 5"
    loaded = diff.read_embeddings(path)
    for (rid, view, lm, vec), (rid2, view2, lm2, vec2) in zip(entries, loaded):
        assert (rid, view, lm) == (rid2, view2, lm2)
        assert np.array_equal(vec, vec2)


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        diff.DiffusionConfig(alpha=1.0).validate()
    with pytest.raises(ValueError, match="k_graph"):
        diff.DiffusionConfig(k_graph=0).validate()
    with pytest.raises(ValueError, match="tol"):
        diff.DiffusionConfig(tol=0.0).validate()
