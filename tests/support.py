"""Helpers shared by the test modules."""

import hashlib

import numpy as np

from plcd.encoder import PARAM_NAMES, EncoderParams


def params_digest(params: EncoderParams) -> str:
    """Stable content hash of an encoder's parameters, for freeze-invariant checks."""
    h = hashlib.sha256()
    for name in PARAM_NAMES:
        h.update(np.ascontiguousarray(getattr(params, name)).tobytes())
    return h.hexdigest()
