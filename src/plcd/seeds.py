"""Named deterministic RNG substreams.

Every source of randomness in the pipeline draws from its own named stream
derived from the single run seed, so changing how one stage consumes
randomness never shifts the draws seen by another stage.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Return a generator keyed by (seed, name), stable across runs and platforms."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in (0, 4, 8, 12)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))
