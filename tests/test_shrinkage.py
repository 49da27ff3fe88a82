"""Tests for the Wasserstein shrinkage estimator."""

import math

import numpy as np
import pytest

from wdro.errors import EmptySample
from wdro.shrinkage import (
    WassersteinShrinkage,
    sample_moments,
    shrinkage_from_samples,
    wasserstein_shrinkage,
)
from wdro.transport import MomentPair


def eq51(gamma, lam, eps):
    """Scalar optimality equation, written out independently."""
    lam = np.asarray(lam, dtype=float)
    total = (eps**2 - 0.5 * lam.sum()) * gamma - lam.size
    for l in lam:
        total += 0.5 * math.sqrt(l**2 * gamma**2 + 4.0 * l * gamma)
    return total


def eq50(gamma, lam):
    return gamma * (1.0 - 0.5 * (math.sqrt(lam**2 * gamma**2 + 4.0 * lam * gamma) - lam * gamma))


# m=1, lam=1, eps=1: the equation reduces to gamma/2 - 1 + sqrt(gamma^2+4*gamma)/2 = 0,
# i.e. sqrt(gamma^2+4*gamma) = 2 - gamma, squaring gives 8*gamma = 4
SCALAR_GAMMA = 0.5
SCALAR_X = 0.25


def test_scalar_oracle_solution():
    assert abs(eq51(SCALAR_GAMMA, [1.0], 1.0)) < 1e-15
    assert abs(eq50(SCALAR_GAMMA, 1.0) - SCALAR_X) < 1e-15


def test_scalar_example():
    res = wasserstein_shrinkage(MomentPair([3.0], [[1.0]]), 1.0)
    assert abs(res.gamma_star - SCALAR_GAMMA) < 1e-10
    assert abs(res.precision[0, 0] - SCALAR_X) < 1e-10
    assert res.mean[0] == 3.0
    assert res.eigen_map.shape == (1, 2) and res.eigen_map[0, 0] == 1.0
    assert abs(res.eigen_map[0, 1] - SCALAR_X) < 1e-10


def test_sample_moments_examples():
    mp = sample_moments([[0.0], [2.0]])
    assert mp.mu[0] == 1.0
    assert mp.sigma[0, 0] == 1.0
    single = sample_moments([[4.0, -1.0]])
    assert np.all(single.sigma == 0.0)
    x = np.array([[1.0, 2.0], [3.0, -1.0], [0.0, 0.5]])
    mp3 = sample_moments(x)
    mean = x.sum(axis=0) / 3.0
    cov = sum(np.outer(r - mean, r - mean) for r in x) / 3.0
    assert np.max(np.abs(mp3.mu - mean)) < 1e-15
    assert np.max(np.abs(mp3.sigma - cov)) < 1e-14
    with pytest.raises(EmptySample):
        sample_moments(np.empty((0, 2)))


def test_residual_small_at_returned_gamma():
    rng = np.random.RandomState(7)
    for m in (1, 2, 3, 4):
        for eps in (0.05, 0.3, 1.0, 4.0):
            A = rng.randn(m, m)
            sigma = A @ A.T
            if m >= 2:
                # introduce rank deficiency half the time
                if rng.rand() < 0.5:
                    B = rng.randn(m, m - 1)
                    sigma = B @ B.T
            res = wasserstein_shrinkage(MomentPair(np.zeros(m), sigma), eps)
            lam = np.array(sorted(l for l, _ in res.eigen_map))
            ref = np.sort(np.clip(np.linalg.eigvalsh(sigma), 0.0, None))
            assert np.max(np.abs(lam - ref)) < 1e-8 * (1.0 + ref.max())
            assert abs(eq51(res.gamma_star, lam, eps)) <= 1e-10
            assert np.linalg.eigvalsh(res.precision).min() > 0.0


def test_zero_eigenvalues_map_to_gamma():
    res = wasserstein_shrinkage(MomentPair([0.0, 0.0], np.diag([2.0, 0.0])), 0.7)
    lams = [l for l, _ in res.eigen_map]
    xs = [x for _, x in res.eigen_map]
    idx = lams.index(0.0)
    assert xs[idx] == res.gamma_star


def test_small_radius_recovers_inverse_covariance():
    rng = np.random.RandomState(3)
    A = rng.randn(3, 3)
    sigma = A @ A.T + 0.5 * np.eye(3)
    res = wasserstein_shrinkage(MomentPair(np.zeros(3), sigma), 1e-6)
    inv = np.linalg.inv(sigma)
    err = np.linalg.norm(res.precision - inv) / np.linalg.norm(inv)
    assert err <= 1e-4


def test_rotation_equivariance():
    rng = np.random.RandomState(11)
    A = rng.randn(4, 4)
    sigma = A @ A.T + 0.1 * np.eye(4)
    R, _ = np.linalg.qr(rng.randn(4, 4))
    base = wasserstein_shrinkage(MomentPair(np.zeros(4), sigma), 0.6)
    rotated = wasserstein_shrinkage(MomentPair(np.zeros(4), R @ sigma @ R.T), 0.6)
    assert np.max(np.abs(rotated.precision - R @ base.precision @ R.T)) < 1e-8


def test_monotonicity_in_radius():
    rng = np.random.RandomState(19)
    A = rng.randn(3, 3)
    sigma = A @ A.T
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 200.0]
    prev = None
    for eps in grid:
        res = wasserstein_shrinkage(MomentPair(np.zeros(3), sigma), eps)
        xs = np.array([x for _, x in res.eigen_map])
        if prev is not None:
            assert np.all(xs <= prev + 1e-12)
        prev = xs
    # eigenvalues vanish for large radii
    assert prev.max() <= 2.0 * 3 / 200.0**2


def test_order_preservation_and_condition_number():
    sigma = np.diag([4.0, 1.0, 0.25])
    res = wasserstein_shrinkage(MomentPair(np.zeros(3), sigma), 0.8)
    lams = np.array([l for l, _ in res.eigen_map])
    xs = np.array([x for _, x in res.eigen_map])
    order = np.argsort(lams)
    assert np.all(np.diff(xs[order]) < 0.0)  # larger lambda, strictly smaller x
    conds = []
    for eps in (0.1, 0.5, 1.0, 5.0, 50.0, 1000.0):
        r = wasserstein_shrinkage(MomentPair(np.zeros(3), sigma), eps)
        w = np.linalg.eigvalsh(r.precision)
        conds.append(w.max() / w.min())
    assert all(b <= a + 1e-9 for a, b in zip(conds, conds[1:]))
    assert conds[-1] <= 1.01


def test_precision_commutes_with_covariance():
    rng = np.random.RandomState(23)
    A = rng.randn(4, 4)
    sigma = A @ A.T
    res = wasserstein_shrinkage(MomentPair(np.zeros(4), sigma), 0.4)
    comm = res.precision @ sigma - sigma @ res.precision
    assert np.max(np.abs(comm)) < 1e-9 * (1.0 + np.abs(sigma).max())


def test_rejects_zero_radius():
    with pytest.raises(ValueError):
        wasserstein_shrinkage(MomentPair([0.0], [[1.0]]), 0.0)


def test_estimator_wrapper_and_composition():
    rng = np.random.RandomState(29)
    X = rng.randn(40, 3) @ np.diag([1.0, 2.0, 0.5]) + np.array([1.0, -1.0, 0.0])
    direct = shrinkage_from_samples(X, 0.3)
    manual = wasserstein_shrinkage(sample_moments(X), 0.3)
    assert np.max(np.abs(direct.precision - manual.precision)) == 0.0
    est = WassersteinShrinkage(eps=0.3).fit(X)
    assert np.max(np.abs(est.location_ - X.mean(axis=0))) < 1e-12
    assert np.max(np.abs(est.precision_ - manual.precision)) == 0.0
    assert est.gamma_ == manual.gamma_star
    assert est.get_params() == {"eps": 0.3}
    est.set_params(eps=0.5)
    assert est.eps == 0.5
    with pytest.raises(ValueError):
        est.set_params(radius=1.0)
    # an unknown key sets nothing, not even the keys before it
    with pytest.raises(ValueError):
        est.set_params(eps=0.7, radius=1.0)
    assert est.get_params() == {"eps": 0.5}
