"""Differential tests of the identities behind the shared quadratic multiplier.

The type-2 worst case of a quadratic loss around samples is the Gelbrich
worst case at the samples' moments, and the Frank-Wolfe direction of the
MMSE problem is the Gelbrich extremal covariance of the linear loss
Tr[grad S] (Nguyen et al., *Bridging Bayesian and minimax mean square error
estimation via Wasserstein DRO*, 2023).  The three duals are solved by
different code around one multiplier step, so each identity checks one
against another on seeded instances.
"""

import numpy as np

from wdro.empirical_risk import QuadraticLoss, extremal_quadratic, wc_risk_quadratic
from wdro.mmse import fw_direction
from wdro.moment_risk import gelbrich_risk_quadratic
from wdro.transport import DiscreteDistribution, MomentPair, moments


def test_type2_worst_case_is_the_gelbrich_worst_case_at_the_sample_moments():
    rng = np.random.RandomState(2024)
    for _ in range(60):
        m = rng.randint(1, 6)
        n = rng.randint(m + 2, 3 * m + 4)
        A = rng.randn(m, m)
        loss = QuadraticLoss(0.5 * (A + A.T), rng.randn(m))
        samples = DiscreteDistribution(rng.randn(n, m) * rng.uniform(0.5, 3.0), rng.dirichlet(np.ones(n)))
        eps = float(rng.uniform(0.05, 2.0))
        gelbrich = gelbrich_risk_quadratic(loss, moments(samples), eps)
        assert gelbrich.regularization == 0.0
        value = wc_risk_quadratic(loss, samples, eps)
        # relative to the size of the loss's terms: they can cancel to a
        # value far smaller than any of them
        X = samples.atoms
        terms = samples.weights @ (np.abs(np.einsum("ij,jk,ik->i", X, loss.Q, X)) + 2.0 * np.abs(X @ loss.q))
        assert abs(value - gelbrich.value) <= 1e-12 * max(abs(gelbrich.value), terms), (value, gelbrich.value)


def test_frank_wolfe_direction_is_the_gelbrich_extremal_covariance():
    rng = np.random.RandomState(2025)
    for _ in range(60):
        m = rng.randint(1, 7)
        B = rng.randn(m, rng.randint(1, m + 1))  # a gradient of any rank
        C = rng.randn(m, m)
        grad, sigma = B @ B.T, C @ C.T + 0.1 * np.eye(m)
        eps = float(rng.uniform(0.05, 2.0))
        D = fw_direction(grad, sigma, eps).D
        zero = np.zeros(m)
        gelbrich = gelbrich_risk_quadratic(QuadraticLoss(grad, zero), MomentPair(zero, sigma), eps)
        assert gelbrich.regularization == 0.0
        assert np.abs(D - gelbrich.extremal.sigma).max() <= 1e-13 * np.abs(D).max()


def test_both_duals_sit_at_the_boundary_for_a_negative_definite_loss():
    # Q < 0 and a radius large enough to reach the loss's maximizer
    # xi* = -Q^{-1} q: both multipliers are max(0, lam_max) = 0, and each dual
    # moves all the mass to xi*, where the loss is -q' Q^{-1} q
    rng = np.random.RandomState(7)
    A = rng.randn(3, 3)
    Q = -(A @ A.T + 0.5 * np.eye(3))
    loss = QuadraticLoss(Q, rng.randn(3))
    samples = DiscreteDistribution(rng.randn(8, 3), rng.dirichlet(np.ones(8)))
    peak = np.linalg.solve(-Q, loss.q)
    top = float(loss.q @ peak)
    eps = 10.0 * float(np.max(np.linalg.norm(samples.atoms - peak, axis=1)))

    gelbrich = gelbrich_risk_quadratic(loss, moments(samples), eps)
    assert gelbrich.regularization == 0.0
    assert gelbrich.gamma_star == 0.0 and not gelbrich.interior
    assert np.allclose(gelbrich.extremal.mu, peak, rtol=0.0, atol=1e-13 * np.abs(peak).max())
    assert np.abs(gelbrich.extremal.sigma).max() <= 1e-13

    report = extremal_quadratic(loss, samples, eps)
    assert report.kind == "attained"
    atoms = report.distribution.atoms
    assert np.abs(atoms - peak).max() <= 1e-13 * np.abs(peak).max()
    for value in (wc_risk_quadratic(loss, samples, eps), report.certified_value, gelbrich.value):
        assert abs(value - top) <= 1e-12 * abs(top), (value, top)


def test_a_rotated_repeated_top_eigenvalue_keeps_the_extremal():
    # Q = diag(1, 1, -1) and samples with no weight on its top eigenspace:
    # rotated, the two top eigenvalues differ by rounding and the samples
    # weigh on them by rounding, yet the dual must stay at the boundary
    # gamma = 1 and move every atom as the unrotated problem does
    rng = np.random.RandomState(3)
    R = np.linalg.qr(rng.randn(3, 3))[0]
    atoms = np.column_stack([np.zeros(5), np.zeros(5), rng.randn(5)])
    w = rng.dirichlet(np.ones(5))
    Q, q = np.diag([1.0, 1.0, -1.0]), np.array([0.0, 0.0, 0.3])
    rotated_Q = R @ Q @ R.T
    for eps in (2.0, 5.0):
        ref = extremal_quadratic(QuadraticLoss(Q, q), DiscreteDistribution(atoms, w), eps)
        loss = QuadraticLoss(0.5 * (rotated_Q + rotated_Q.T), R @ q)
        samples = DiscreteDistribution(atoms @ R.T, w)
        rep = extremal_quadratic(loss, samples, eps)
        assert ref.kind == rep.kind == "asymptotic"
        for value in (rep.certified_value, wc_risk_quadratic(loss, samples, eps)):
            assert abs(value - ref.certified_value) <= 1e-12 * abs(ref.certified_value)
        base = ref.family.base_atoms @ R.T
        assert np.abs(rep.family.base_atoms - base).max() <= 1e-12 * np.abs(base).max()
        (escape,), (ref_escape,) = rep.family.escapes, ref.family.escapes
        assert abs(escape.coef - ref_escape.coef) <= 1e-9 * ref_escape.coef
