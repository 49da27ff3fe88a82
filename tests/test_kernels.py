"""The small dense kernels of the estimators: how many root evaluations
they take, and that the cheap forms give the answers of the plain ones.

The decomposition counts of a shrinkage fit and of a Frank-Wolfe iteration
are checked next to the other spectra, in ``test_spectrum.py``.
"""

import math

import numpy as np
import pytest

import wdro.mmse as mmse_module
import wdro.numerics as numerics
from wdro.calibrate import cv_radius, fold_assignments
from wdro.mmse import JointMoments, fw_direction, fw_solve
from wdro.numerics import monotone_root
from wdro.shrinkage import sample_moments, wasserstein_shrinkage
from wdro.transport import MomentPair, gelbrich_distance


def test_line_search_stays_within_its_evaluation_budget(monkeypatch):
    """The Frank-Wolfe line search needs at most 12 points inside (0, 1), 6 on
    average: the root stops once a Newton step no longer shrinks, instead of
    bisecting the rounding noise of the slope down to a few ulps."""
    counts = []
    real = mmse_module.monotone_root

    def counted(f, lo, hi, **known):
        points = []

        def g(t):
            points.append(t)
            return f(t)

        root = real(g, lo, hi, **known)
        counts.append(len(points))
        return root

    monkeypatch.setattr(mmse_module, "monotone_root", counted)
    rng = np.random.default_rng(21)
    for k in range(24):
        mx, my = 1 + k % 3, 2 + k % 4
        m = mx + my
        R = rng.normal(size=(m, m))
        joint = JointMoments(mx, my, np.zeros(m), R @ R.T / m + 0.5 * np.eye(m))
        assert fw_solve(joint, float(rng.uniform(0.1, 0.5)), iters=60).target_met
    assert len(counts) > 20
    assert max(counts) <= 12 and np.mean(counts) <= 6.0, (max(counts), np.mean(counts))


def test_monotone_root_stops_when_newton_steps_stop_shrinking():
    """A root whose function carries noise of 1e-9, as a difference of nearly
    equal terms does: Newton reaches the noise in a few steps and stops there,
    with the root as accurate as the noise allows; bisecting the noise down to
    a few ulps took about 20 more evaluations."""
    root = 0.37

    def f(x):
        evaluated.append(x)
        noise = 1e-9 * math.sin(1e15 * x)
        return (x - root) * (1.0 + x) + noise, 1.0 + 2.0 * x - root

    for noise_stop, budget in ((True, 10), (False, 60)):
        evaluated = []
        x = monotone_root(f, 0.0, 1.0, noise_stop=noise_stop)
        assert abs(x - root) <= 1e-8
        assert len(evaluated) <= budget
    assert len(evaluated) > 20  # without the stop the noise is bisected


def test_cv_radius_equals_a_radii_outer_reference_bit_for_bit():
    def train_fn(rows, eps):
        return wasserstein_shrinkage(sample_moments(rows), eps)

    def eval_fn(model, rows):
        z = rows - model.mean
        return float(np.mean(np.einsum("ij,jk,ik->i", z, model.precision, z)) - np.linalg.slogdet(model.precision)[1])

    def reference(x, grid, folds, seed):
        assign = fold_assignments(x.shape[0], folds, seed)
        counts = np.bincount(assign, minlength=folds)
        best_eps, best_risk, risks = None, math.inf, []
        for eps in sorted(grid):
            total = 0.0
            for k in range(folds):
                test = assign == k
                total += counts[k] * float(eval_fn(train_fn(x[~test], eps), x[test]))
            risks.append(total / x.shape[0])
            if risks[-1] < best_risk:
                best_eps, best_risk = eps, risks[-1]
        return best_eps, risks

    rng = np.random.default_rng(9)
    grid = (0.8, 0.05, 0.2, 0.1, 0.4)
    for n, m in ((40, 3), (63, 5), (80, 6)):
        x = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0, size=m)
        seed = int(rng.integers(2**32))
        seen = []

        def recording_eval(model, rows):
            seen.append(eval_fn(model, rows))
            return seen[-1]

        chosen = cv_radius(train_fn, recording_eval, x, grid, folds=5, seed=seed)
        want, risks = reference(x, grid, 5, seed)
        assert chosen == want
        counts = np.bincount(fold_assignments(n, 5, seed), minlength=5)
        got = [sum(c * s for c, s in zip(counts, seen[i : i + 5])) / n for i in range(0, len(seen), 5)]
        assert got == risks  # every fold score and every sum, bit for bit


def _full_direction(grad, sigma, eps):
    """The Frank-Wolfe direction from the m x m eigendecomposition of grad."""
    g, V = np.linalg.eigh(grad)
    g, V = g[::-1], V[:, ::-1]
    S_t = V.T @ sigma @ V
    gamma, inv = numerics.quadratic_multiplier(g, g**2 * np.clip(np.diag(S_t), 0.0, None), eps)
    factor = 1.0 + g * inv
    D = V @ (S_t * factor[:, None] * factor[None, :]) @ V.T
    return 0.5 * (D + D.T), gamma


def test_fw_direction_equals_the_full_eigendecomposition_formula():
    """Within 1e-12 relative, and by construction within the inward slack of
    64 ulps of sqrt(Tr Sigma) that the direction keeps from the sphere."""
    rng = np.random.default_rng(31)
    for k in range(40):
        m = 2 + k % 6
        A = rng.normal(size=(m, 1 + k % m))  # a PSD grad of any rank
        C = rng.normal(size=(m, m))
        grad, sigma = A @ A.T, C @ C.T + 0.2 * np.eye(m)
        eps = float(rng.uniform(0.05, 1.5))
        res = fw_direction(grad, sigma, eps)
        target = eps - mmse_module._INSIDE * math.sqrt(np.trace(sigma))
        D, gamma = _full_direction(grad, sigma, target)
        assert np.abs(res.D - D).max() <= 1e-12 * np.abs(D).max(), k
        assert abs(res.gamma_star - gamma) <= 1e-12 * gamma, k


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
def test_gelbrich_distance_of_a_commuting_family_without_cancellation(delta):
    """S' = (1 + delta)^2 S commutes with S, and the distance is
    delta sqrt(Tr S) in closed form.  The difference of traces lost it for
    delta below about 1e-7; the polar factor keeps it to a few ulps of
    sqrt(Tr S)."""
    rng = np.random.default_rng(17)
    for k in range(20):
        m = 1 + k % 6
        A = rng.normal(size=(m, m))
        S = A @ A.T + 0.1 * np.eye(m)
        if k % 2:
            S = np.diag(np.diag(S))
        pair = MomentPair(np.zeros(m), S)
        w, V = pair.spectrum.values, pair.spectrum.vectors
        other = MomentPair(np.zeros(m), (V * (w * (1.0 + delta) ** 2)) @ V.T)
        scale = math.sqrt(np.trace(S))
        assert abs(gelbrich_distance(pair, other) - delta * scale) <= 1e-14 * scale, (k, delta)
        assert abs(gelbrich_distance(other, pair) - delta * scale) <= 1e-14 * scale, (k, delta)


def test_a_frank_wolfe_answer_at_a_tiny_radius_lies_inside_the_ball():
    """The ``mmse`` report's feasibility residual, max(dist - eps, 0), on
    seeded joint covariances at eps = 1e-7: the difference of traces put it
    at tens of percent of eps; it now reads at most 1e-9 eps (in fact 0, as
    the direction keeps its slack inside the ball)."""
    eps = 1e-7
    for seed in range(12):
        rng = np.random.default_rng(seed)
        m = 4 + seed % 3
        B = rng.normal(size=(m, m))
        cov = B @ B.T / m + 0.5 * np.eye(m)
        res = fw_solve(JointMoments(2, m - 2, rng.normal(size=m), cov), eps)
        zero = np.zeros(m)
        lifted = cov + res.regularization * np.eye(m)
        dist = gelbrich_distance(MomentPair(zero, res.S), MomentPair(zero, lifted))
        assert max(dist - eps, 0.0) <= 1e-9 * eps, seed
        assert dist >= 0.99 * eps, seed  # on the sphere, up to the slack
