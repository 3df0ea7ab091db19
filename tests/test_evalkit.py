import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcd import evalkit
from plcd.ranking import (RankingList, format_ranking, rank_rows,
                          read_ranking, write_ranking)
from plcd.seeds import substream

from support import rank_gallery


def make_ranking(qid, ids_scores):
    ids = [i for i, _ in ids_scores]
    scores = [s for _, s in ids_scores]
    return rank_gallery(qid, ids, scores)


# ---------------------------------------------------------------------------
# ranking mechanics
# ---------------------------------------------------------------------------

def test_rank_gallery_sorts_desc_with_id_ties():
    r = rank_gallery(1, [5, 2, 9, 4], [0.3, 0.9, 0.3, 0.1])
    assert r.gallery_ids == [2, 5, 9, 4]
    assert r.scores == [0.9, 0.3, 0.3, 0.1]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rank_gallery_rejects_non_finite_scores(bad):
    # a NaN once sorted as if it were a score: [0.2, nan, 0.9] ranked 0.9 last
    with pytest.raises(ValueError, match="non-finite score .* gallery id 11 .* query 1"):
        rank_gallery(1, [10, 11, 12], [0.2, bad, 0.9])


@st.composite
def score_matrix(draw):
    """Scores on a coarse integer grid (exact ties are common, ``-0.0``
    among them) for one gallery of distinct, shuffled ids; rows can repeat
    each other and query ids can repeat."""
    n_gallery, n_rows = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    ids = draw(st.permutations(range(100, 100 + 3 * n_gallery)))[:n_gallery]
    grid = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    rows = [draw(st.lists(grid, min_size=n_gallery, max_size=n_gallery))
            for _ in range(n_rows)]
    rows = [rows[draw(st.integers(0, i))] for i in range(n_rows)]  # repeats
    qids = [draw(st.integers(1, 3)) for _ in range(n_rows)]
    return qids, ids, rows


@settings(max_examples=200, deadline=None)
@given(score_matrix(), st.booleans())
def test_rank_rows_matches_per_row_sort(case, flag):
    qids, ids, rows = case
    rankings = rank_rows(qids, ids, np.array(rows), degenerate=flag)
    assert len(rankings) == len(rows)
    for qid, row, ranking in zip(qids, rows, rankings):
        expected = sorted(zip(ids, row), key=lambda p: (-p[1], p[0]))
        assert ranking.query_id == qid and ranking.degenerate == flag
        assert ranking.gallery_ids == [i for i, _ in expected]
        # repr tells -0.0 from 0.0: each score travels with its own id
        assert [repr(s) for s in ranking.scores] == [repr(s) for _, s in expected]
        alone = rank_gallery(qid, ids, row, degenerate=flag)
        assert (alone.gallery_ids, alone.scores) == (ranking.gallery_ids, ranking.scores)


def test_rank_rows_flags_per_row_and_names_the_bad_query():
    scores = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 2.0]])
    rankings = rank_rows([1, 2, 3], [8, 9], scores, degenerate=~scores.any(axis=1))
    assert [r.degenerate for r in rankings] == [True, False, False]
    assert [r.gallery_ids for r in rankings] == [[8, 9], [8, 9], [9, 8]]
    scores[2, 0] = math.nan
    with pytest.raises(ValueError, match="non-finite score nan for gallery id 8 .* query 3"):
        rank_rows([1, 2, 3], [8, 9], scores)


def test_ranking_rejects_duplicates_and_disorder(tmp_path):
    # files enter from outside, so read_ranking checks ids and order
    path = tmp_path / "ranking-1.txt"
    path.write_text("1 1 2 0.5\n1 2 2 0.4\n")
    with pytest.raises(ValueError, match="duplicate gallery ids in ranking for query 1"):
        read_ranking(path)
    path.write_text("1 1 1 0.1\n1 2 2 0.9\n")
    with pytest.raises(ValueError, match="scores not non-increasing for query 1"):
        read_ranking(path)
    # rank_rows builds the order itself and checks its gallery once per call
    with pytest.raises(ValueError, match=r"duplicate gallery ids \[2\]"):
        rank_rows([1, 3], [2, 5, 2], np.zeros((2, 3)))


def test_ranking_file_round_trip(tmp_path):
    r = rank_gallery(7, [3, 1, 2], [0.5, 0.25, 0.125], degenerate=True)
    path = tmp_path / "ranking-7.txt"
    write_ranking(path, r)
    text = path.read_text()
    assert text.splitlines()[0] == "# degenerate"
    assert text.splitlines()[1].startswith("7 1 ")
    loaded = read_ranking(path)
    assert loaded.query_id == 7
    assert loaded.gallery_ids == r.gallery_ids
    assert loaded.scores == r.scores
    assert loaded.degenerate


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_ranking_rejects_non_finite_scores(tmp_path, bad):
    # such a file once parsed, and evaluation scored an order that meant nothing
    path = tmp_path / "ranking-5.txt"
    path.write_text(f"5 1 10 0.5\n5 2 11 {bad}\n")
    with pytest.raises(ValueError, match=rf"ranking-5\.txt: non-finite score {bad} at rank 2"):
        read_ranking(path)


def test_ranking_format_lines():
    r = rank_gallery(4, [10, 11], [1.0, 0.5])
    lines = format_ranking(r).splitlines()
    assert lines == ["4 1 10 1.0", "4 2 11 0.5"]


def reference_format_ranking(ranking):
    """``format_ranking`` as it was before it joined the rows in one pass:
    one line built per gallery entry."""
    lines = []
    if ranking.degenerate:
        lines.append("# degenerate")
    for rank, (gid, score) in enumerate(zip(ranking.gallery_ids, ranking.scores), start=1):
        lines.append(f"{ranking.query_id} {rank} {gid} {repr(float(score))}")
    return "\n".join(lines) + "\n"


EDGE_SCORES = [1e308, 0.1, 2.2250738585072014e-308, 5e-324, 0.0, -0.0, -5e-324, -1e308]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=0, max_size=12),
       st.booleans())
def test_format_ranking_matches_the_reference_formatter(extra, degenerate):
    scores = sorted(EDGE_SCORES + extra, reverse=True)
    ids = list(range(500, 500 + len(scores)))
    r = RankingList(7, ids, scores, degenerate)
    text = format_ranking(r)
    assert text == reference_format_ranking(r)
    assert format_ranking(RankingList(7, ids, [np.float64(s) for s in scores], degenerate)) == text
    assert format_ranking(RankingList(7, [], [], degenerate)) == reference_format_ranking(
        RankingList(7, [], [], degenerate))


def test_read_ranking_keeps_edge_scores_bit_exact(tmp_path):
    path = tmp_path / "ranking-3.txt"
    write_ranking(path, RankingList(3, list(range(len(EDGE_SCORES))), EDGE_SCORES))
    loaded = read_ranking(path)
    assert np.array(loaded.scores).tobytes() == np.array(EDGE_SCORES).tobytes()
    assert loaded.gallery_ids == list(range(len(EDGE_SCORES)))
    assert all(type(g) is int for g in loaded.gallery_ids)
    assert not loaded.degenerate


@pytest.mark.parametrize("text, message", [
    ("", "empty ranking file"),
    ("# degenerate\n\n", "empty ranking file"),
    ("5 1 10 0.5\n6 2 11 0.4\n", "mixed query ids 5 and 6"),
    ("5 1 10 0.5\n5 3 11 0.4\n", "rank column out of order at 3"),
    ("5 1 10 0.5\n5 2 11 nan\n5 3 12 0.1\n", "non-finite score nan at rank 2"),
    ("5 1 10 0.5\n5 2 11\n", r"not enough values to unpack \(expected 4, got 3\)"),
    ("5 1 10 0.5 x\n", r"too many values to unpack \(expected 4\)"),
    # the first faulty line is reported, with the checks of a line in order
    ("5 1 10 0.5\n5 3 11 0.4\n6 3 12 inf\n", "rank column out of order at 3"),
    ("5 1 10 0.5\n6 3 11 inf\n", "mixed query ids 5 and 6"),
    ("5 1 10 0.5\n5 02 11 inf\n", "non-finite score inf at rank 02"),
    ("5 1 10 0.5\n5 5 11 0.4\n5 3\n", "rank column out of order at 5"),
])
def test_read_ranking_reports_the_first_faulty_line(tmp_path, text, message):
    path = tmp_path / "ranking-5.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_ranking(path)


def test_read_ranking_compares_ids_and_ranks_as_integers(tmp_path):
    path = tmp_path / "ranking-5.txt"
    path.write_text("# note\n5 1 10 0.5\n\n05 2 +11 0.25\n# degenerate\n")
    loaded = read_ranking(path)
    assert (loaded.query_id, loaded.gallery_ids, loaded.scores) == (5, [10, 11], [0.5, 0.25])
    assert loaded.degenerate


# ---------------------------------------------------------------------------
# CMC
# ---------------------------------------------------------------------------

def test_cmc_rank_three_hand_case():
    r = make_ranking(1, [(10, 0.9), (11, 0.8), (12, 0.7), (13, 0.6), (14, 0.5)])
    report = evalkit.metrics_report([r], {1: {12}}, 5, ks=(1, 2, 3, 5))
    assert report.cmc == {1: 0.0, 2: 0.0, 3: 1.0, 5: 1.0}


def test_cmc_perfect_rankings():
    rankings = [make_ranking(q, [(q * 10, 1.0), (q * 10 + 1, 0.5)])
                for q in (1, 2, 3)]
    relevance = {q: {q * 10} for q in (1, 2, 3)}
    assert evalkit.metrics_report(rankings, relevance, 2, ks=(1, 2)).cmc == {1: 1.0, 2: 1.0}


def test_cmc_monotone_in_k():
    rng = substream(0, "eval.monotone")
    rankings, relevance = _random_instance(rng, queries=30, gallery=15)
    cmc = evalkit.metrics_report(rankings, relevance, 15, ks=range(1, 16)).cmc
    values = [cmc[k] for k in range(1, 16)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # every query has a relevant item


def test_cmc_requires_relevant_items():
    r = make_ranking(1, [(2, 0.5)])
    with pytest.raises(ValueError, match="query 1 has no relevant gallery item"):
        evalkit.metrics_report([r], {1: set()}, 1)
    with pytest.raises(ValueError, match="gallery_size must be >= 1 \\(got 0\\)"):
        evalkit.metrics_report([r], {1: {2}}, 0)


def test_cmc_at_1pct_k_rule():
    r = make_ranking(1, [(10, 0.9), (11, 0.8)])
    relevance = {1: {11}}  # first hit at position 2
    assert math.ceil(0.01 * 951) == 10
    assert evalkit.metrics_report([r], relevance, 951).cmc_at_1pct == 1.0  # K=10 > list is fine
    # gallery of 100 -> K = 1 exactly; gallery below 100 -> K = 1 too
    for gallery_size in (100, 40):
        report = evalkit.metrics_report([r], relevance, gallery_size)
        assert report.cmc_at_1pct == report.cmc[1] == 0.0
    assert evalkit.metrics_report([r], relevance, 101).cmc_at_1pct == 1.0  # K = 2


# ---------------------------------------------------------------------------
# mAP
# ---------------------------------------------------------------------------

def test_ap_hand_case_five_sixths():
    r = make_ranking(1, [(10, 0.9), (11, 0.8), (12, 0.7), (13, 0.6)])
    ap = evalkit.metrics_report([r], {1: {10, 12}}, 4).mean_ap
    assert ap == (1.0 / 1.0 + 2.0 / 3.0) / 2.0  # bit-exact same-order arithmetic
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_map_all_relevant_first():
    r = make_ranking(1, [(10, 0.9), (11, 0.8), (12, 0.7)])
    assert evalkit.metrics_report([r], {1: {10, 11}}, 3).mean_ap == 1.0


def _random_instance(rng, queries, gallery):
    rankings = []
    relevance = {}
    for q in range(queries):
        scores = rng.standard_normal(gallery)
        ids = list(range(100, 100 + gallery))
        rankings.append(rank_gallery(q, ids, scores))
        n_rel = int(rng.integers(1, max(2, gallery // 3)))
        relevance[q] = set(int(i) for i in rng.choice(ids, size=n_rel, replace=False))
    return rankings, relevance


def _brute_force_metrics(score_rows, relevance, ks):
    """Independent recount walking the raw score matrix per query: CMC at
    each k of ``ks``, and mAP.

    Ranks come from pairwise comparisons with the (score desc, id asc) tie
    rule; AP accumulates with the same float arithmetic order as the metric
    implementation so values can be compared exactly.
    """
    cmc_hits = {k: [] for k in ks}
    aps = []
    for qid, (ids, scores) in score_rows.items():
        relevant = relevance[qid]
        ranks = {}
        for i, gid in enumerate(ids):
            rank = 1
            for j, other in enumerate(ids):
                if j == i:
                    continue
                if scores[j] > scores[i] or (scores[j] == scores[i] and other < gid):
                    rank += 1
            ranks[gid] = rank
        rel_ranks = sorted(ranks[g] for g in relevant)
        for k in ks:
            cmc_hits[k].append(1.0 if rel_ranks and rel_ranks[0] <= k else 0.0)
        terms = [(i + 1) / rank for i, rank in enumerate(rel_ranks)]
        aps.append(sum(terms) / len(terms))
    return {k: sum(hits) / len(hits) for k, hits in cmc_hits.items()}, sum(aps) / len(aps)


def test_metrics_match_brute_force_recount():
    rng = substream(1, "eval.oracle")
    for trial in range(50):
        queries = int(rng.integers(2, 10))
        gallery = int(rng.integers(3, 20))
        score_rows = {}
        rankings = []
        relevance = {}
        ids = list(range(7, 7 + gallery))
        for q in range(queries):
            scores = [float(x) for x in
                      rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0], size=gallery)]
            score_rows[q] = (ids, scores)
            rankings.append(rank_gallery(q, ids, scores))
            n_rel = int(rng.integers(1, gallery + 1))
            relevance[q] = set(int(i) for i in rng.choice(ids, size=n_rel,
                                                          replace=False))
        # every k of one report, and CMC@1%, against one recount
        ks = range(1, gallery + 1)
        report = evalkit.metrics_report(rankings, relevance, gallery, ks=ks)
        cmc_oracle, map_oracle = _brute_force_metrics(score_rows, relevance, ks)
        assert report.cmc == cmc_oracle
        assert report.cmc_at_1pct == cmc_oracle[math.ceil(0.01 * gallery)]
        assert report.mean_ap == map_oracle


def test_metrics_invariant_under_gallery_permutation():
    rng = substream(2, "eval.perm")
    gallery = 12
    ids = list(range(gallery))
    scores = [float(s) for s in rng.standard_normal(gallery)]
    relevance = {0: {3, 7}}
    base = rank_gallery(0, ids, scores)
    perm = list(rng.permutation(gallery))
    shuffled = rank_gallery(0, [ids[i] for i in perm], [scores[i] for i in perm])
    assert base.gallery_ids == shuffled.gallery_ids
    assert evalkit.metrics_report([base], relevance, gallery) == \
        evalkit.metrics_report([shuffled], relevance, gallery)


def test_metrics_report_json_keys():
    rankings = [make_ranking(1, [(10, 0.9), (11, 0.8)])]
    report = evalkit.metrics_report(rankings, {1: {10}}, gallery_size=2)
    payload = json.loads(evalkit.report_to_json(report))
    assert set(payload) == set(evalkit.METRIC_KEYS)
    assert payload["n_queries"] == 1
    assert payload["cmc1"] == 1.0


def test_reports_to_csv_alignment():
    rankings = [make_ranking(1, [(10, 0.9), (11, 0.8)])]
    report = evalkit.metrics_report(rankings, {1: {10}}, gallery_size=2)
    csv = evalkit.reports_to_csv([("variant-a", report), ("b", report)])
    lines = csv.strip().splitlines()
    assert lines[0].split(",")[0].strip() == "variant"
    assert len(lines) == 3


def test_unknown_ablation_suite():
    from plcd.config import RunConfig
    with pytest.raises(ValueError, match="alpha-sweep"):
        evalkit.run_ablation("nonsense", RunConfig())
