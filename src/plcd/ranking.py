"""Per-query gallery rankings and their line-oriented file format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np


@dataclass
class RankingList:
    """Gallery ids ordered by non-increasing score for one query.

    ``degenerate`` marks rankings where every score was zero (e.g. no graph
    path reached any gallery node) and the order fell back to the id tie rule.
    """

    query_id: int
    gallery_ids: list[int]
    scores: list[float]
    degenerate: bool = False

    def __post_init__(self) -> None:
        if len(self.gallery_ids) != len(self.scores):
            raise ValueError("gallery_ids and scores must align")
        if len(set(self.gallery_ids)) != len(self.gallery_ids):
            raise ValueError(f"duplicate gallery ids in ranking for query {self.query_id}")
        if any(a < b - 1e-12 for a, b in zip(self.scores, self.scores[1:])):
            raise ValueError(f"scores not non-increasing for query {self.query_id}")


def row_order(scores: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    """Per-row order of a (rows, n) score matrix: columns by descending score,
    ties (``-0.0`` equals ``0.0``) on the lowest of ``ids``, one per column."""
    keys = np.broadcast_to(np.asarray(ids, dtype=np.int64), scores.shape)
    return np.lexsort((keys, -scores), axis=-1)


def rank_rows(query_ids: Sequence[int], gallery_ids: Sequence[int], scores,
              degenerate=False) -> list[RankingList]:
    """One ranking per row of a (queries, gallery) score matrix, in
    ``row_order``; ``degenerate`` is one flag for all rows or one per row. A
    NaN or infinite score has no place in that order and is rejected, naming
    its query and gallery id."""
    scores = np.asarray(scores, dtype=float).reshape(len(query_ids), len(gallery_ids))
    bad = np.argwhere(~np.isfinite(scores))
    if bad.size:
        q, g = bad[0]
        raise ValueError(f"non-finite score {scores[q, g]} for gallery id "
                         f"{gallery_ids[g]} in ranking for query {query_ids[q]}")
    ids = np.array([int(i) for i in gallery_ids], dtype=object)  # rows share these ints
    flags = np.broadcast_to(np.asarray(degenerate, dtype=bool), len(query_ids)).tolist()
    return [RankingList(query_id=qid, gallery_ids=ids[order].tolist(),
                        scores=row[order].tolist(), degenerate=flag)
            for qid, row, order, flag in zip(query_ids, scores,
                                             row_order(scores, ids), flags)]


def rank_gallery(query_id: int, gallery_ids: Sequence[int],
                 scores: Sequence[float], degenerate: bool = False) -> RankingList:
    """``rank_rows`` for one query."""
    return rank_rows([query_id], gallery_ids, [scores], degenerate)[0]


def format_ranking(ranking: RankingList) -> str:
    prefix = f"{ranking.query_id} "
    lines = ["# degenerate"] if ranking.degenerate else []
    lines += [f"{prefix}{rank} {gid} {score!r}" for rank, gid, score
              in zip(count(1), ranking.gallery_ids, map(float, ranking.scores))]
    return "\n".join(lines) + "\n"


def write_ranking(path, ranking: RankingList) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_ranking(ranking))


def read_ranking(path) -> RankingList:
    """Parses the lines of a ``format_ranking`` file column by column. The
    first faulty line (not exactly 4 fields, another query id, a rank out of
    order, a non-finite score) raises a ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    degenerate = any("degenerate" in ln for ln in lines if ln[:1] == "#")
    rows = [row for row in (ln.split() for ln in lines if ln[:1] != "#") if row]
    n = next((i for i, row in enumerate(rows) if len(row) != 4), len(rows))
    qtok, rtok, gtok, stok = zip(*rows[:n]) if n else ((),) * 4
    qids = list(map(int, qtok)) if len(set(qtok)) != 1 else [int(qtok[0])] * n
    ranks, scores = list(map(int, rtok)), list(map(float, stok))
    if len(set(qids)) > 1 or ranks != list(range(1, n + 1)) or not all(map(math.isfinite, scores)):
        for i, (qid, rank, score) in enumerate(zip(qids, ranks, scores)):
            if qid != qids[0]:
                raise ValueError(f"{path}: mixed query ids {qids[0]} and {qtok[i]}")
            if rank != i + 1:
                raise ValueError(f"{path}: rank column out of order at {rtok[i]}")
            if not math.isfinite(score):
                raise ValueError(f"{path}: non-finite score {stok[i]} at rank {rtok[i]}")
    if n < len(rows):
        _, _, _, _ = rows[n]  # raises the unpacking error for a line without 4 fields
    if not n:
        raise ValueError(f"{path}: empty ranking file")
    return RankingList(query_id=qids[0], gallery_ids=list(map(int, gtok)),
                       scores=scores, degenerate=degenerate)
