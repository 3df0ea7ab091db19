"""Helpers shared by the test modules."""

import hashlib

import numpy as np

from plcd.dataspace import EMB_MAGIC
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


def read_embeddings(path) -> list[tuple[int, str, int, np.ndarray]]:
    """The entries of an embedding exchange file, (record id, view,
    landmark-or-0, vector); a malformed or non-finite entry raises ValueError
    naming ``path``."""
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
