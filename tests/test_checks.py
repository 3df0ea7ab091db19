import numpy as np

from plcd import checks
from plcd.seeds import substream


def test_gradient_suite_covers_every_objective():
    worst = checks.gradient_suite(num_seeds=3)
    assert set(worst) == {"consistency", "cross-entropy", "hard",
                          "similarity-soft", "joint-ground-drone", "patch-mse",
                          "semi-hard-triplet", "joint-satellite-drone",
                          "region-aggregate-params", "region-patch-params",
                          "peer-step-params", "shared-step-params"}
    assert max(worst.values()) < 1e-4


def test_stochastic_matrix_families():
    rng = substream(0, "test.families")
    for family in ("dense", "sparse", "ring"):
        m = checks.random_stochastic_matrix(30, rng, family=family)
        assert np.allclose(m.sum(axis=0), 1.0)
        assert np.allclose(np.diag(m), 0.0)
        assert np.all(m >= 0.0)
    ring = checks.random_stochastic_matrix(30, rng, family="ring")
    assert np.count_nonzero(ring) == 30 * 4


def test_diffusion_oracle_small():
    assert checks.diffusion_oracle(num_graphs=10, max_n=50) < 1e-6


def test_diffusion_oracle_fails_on_an_unconverged_walk(monkeypatch):
    # a walk cut off before it stops must not be scored as its limit
    monkeypatch.setattr(checks, "_walk_budget", lambda f0, alpha, tol: 1)
    assert checks.diffusion_oracle(num_graphs=3, max_n=50) == float("inf")


def test_substreams_are_stable_and_distinct():
    a = substream(1, "x").standard_normal(4)
    b = substream(1, "x").standard_normal(4)
    c = substream(1, "y").standard_normal(4)
    d = substream(2, "x").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
