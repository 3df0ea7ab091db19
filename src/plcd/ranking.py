"""Per-query gallery rankings and their line-oriented file format."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    lines = []
    if ranking.degenerate:
        lines.append("# degenerate")
    for rank, (gid, score) in enumerate(zip(ranking.gallery_ids, ranking.scores), start=1):
        lines.append(f"{ranking.query_id} {rank} {gid} {repr(float(score))}")
    return "\n".join(lines) + "\n"


def write_ranking(path, ranking: RankingList) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_ranking(ranking))


def read_ranking(path) -> RankingList:
    query_id = None
    gallery_ids: list[int] = []
    scores: list[float] = []
    degenerate = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                degenerate = degenerate or "degenerate" in line
                continue
            qid, rank, gid, score = line.split()
            if query_id is None:
                query_id = int(qid)
            elif int(qid) != query_id:
                raise ValueError(f"{path}: mixed query ids {query_id} and {qid}")
            if int(rank) != len(gallery_ids) + 1:
                raise ValueError(f"{path}: rank column out of order at {rank}")
            if not math.isfinite(float(score)):
                raise ValueError(f"{path}: non-finite score {score} at rank {rank}")
            gallery_ids.append(int(gid))
            scores.append(float(score))
    if query_id is None:
        raise ValueError(f"{path}: empty ranking file")
    return RankingList(query_id=query_id, gallery_ids=gallery_ids,
                       scores=scores, degenerate=degenerate)
