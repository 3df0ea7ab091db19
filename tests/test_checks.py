"""Tests of the self-check harness (``harness.py``) that criteria 1 and 2 run."""

import numpy as np
import pytest

from plcd.seeds import substream

import harness


def test_check_gradients_quadratic():
    rng = substream(10, "t")
    p = rng.standard_normal(7)

    def loss_fn(params):
        (x,) = params
        return 0.5 * float(x @ x), [x.copy()]

    assert harness.check_gradients(loss_fn, [p], epsilon=1e-6) < 1e-8


def test_check_gradients_rejects_bad_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        harness.check_gradients(lambda p: (0.0, [np.zeros(1)]), [np.zeros(1)], epsilon=0.0)


def test_gradient_suite_covers_every_objective():
    worst = harness.gradient_suite(num_seeds=3)
    assert set(worst) == {"consistency", "cross-entropy", "hard",
                          "similarity-soft", "joint-ground-drone", "patch-mse",
                          "semi-hard-triplet", "joint-satellite-drone",
                          "region-aggregate-params", "region-patch-params",
                          "peer-step-params", "shared-step-params"}
    assert max(worst.values()) < 1e-4


def test_stochastic_matrix_families():
    rng = substream(0, "test.families")
    for family in ("dense", "sparse", "ring"):
        m = harness.random_stochastic_matrix(30, rng, family=family)
        assert np.allclose(m.sum(axis=0), 1.0)
        assert np.allclose(np.diag(m), 0.0)
        assert np.all(m >= 0.0)
    ring = harness.random_stochastic_matrix(30, rng, family="ring")
    assert np.count_nonzero(ring) == 30 * 4


def test_diffusion_oracle_small():
    assert harness.diffusion_oracle(num_graphs=10, max_n=50) < 1e-6


def test_diffusion_oracle_fails_on_an_unconverged_walk(monkeypatch):
    # a walk cut off before it stops must not be scored as its limit
    monkeypatch.setattr(harness, "_walk_budget", lambda f0, alpha, tol: 1)
    assert harness.diffusion_oracle(num_graphs=3, max_n=50) == float("inf")
