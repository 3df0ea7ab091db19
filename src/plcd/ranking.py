"""Per-query gallery rankings and their line-oriented file format."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def rank_gallery(query_id: int, gallery_ids: Sequence[int],
                 scores: Sequence[float], degenerate: bool = False) -> RankingList:
    """Sort descending by score; equal scores break on the lowest gallery id.

    A NaN or infinite score has no place in that order and is rejected.
    """
    values = [float(s) for s in scores]
    for gid, v in zip(gallery_ids, values):
        if not math.isfinite(v):
            raise ValueError(f"non-finite score {v} for gallery id {gid} "
                             f"in ranking for query {query_id}")
    order = sorted(range(len(gallery_ids)),
                   key=lambda i: (-values[i], int(gallery_ids[i])))
    return RankingList(
        query_id=query_id,
        gallery_ids=[int(gallery_ids[i]) for i in order],
        scores=[values[i] for i in order],
        degenerate=degenerate,
    )


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
            gallery_ids.append(int(gid))
            scores.append(float(score))
    if query_id is None:
        raise ValueError(f"{path}: empty ranking file")
    return RankingList(query_id=query_id, gallery_ids=gallery_ids,
                       scores=scores, degenerate=degenerate)
