import numpy as np

from plcd.seeds import substream


def test_substreams_are_stable_and_distinct():
    a = substream(1, "x").standard_normal(4)
    b = substream(1, "x").standard_normal(4)
    c = substream(1, "y").standard_normal(4)
    d = substream(2, "x").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
