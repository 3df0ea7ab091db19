"""Helpers shared by the test modules."""

import hashlib

import numpy as np

from plcd.encoder import PARAM_NAMES, EncoderParams
from plcd.ranking import RankingList, rank_rows


def params_digest(params: EncoderParams) -> str:
    """Stable content hash of an encoder's parameters, for freeze-invariant checks."""
    h = hashlib.sha256()
    for name in PARAM_NAMES:
        h.update(np.ascontiguousarray(getattr(params, name)).tobytes())
    return h.hexdigest()


def rank_gallery(query_id: int, gallery_ids, scores, degenerate: bool = False) -> RankingList:
    """``rank_rows`` for one query."""
    return rank_rows([query_id], gallery_ids, [scores], degenerate)[0]
