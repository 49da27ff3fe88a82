"""Scale and translation sweeps for the paths that solve a scalar dual.

Each instance is built at scale s = 1 and then with every length multiplied
by s in 1e-10..1e8 (atoms, means, radii, linear loss terms; covariances by
s^2).  The answers must follow exactly: a value of order s^k divided by s^k
must match the s = 1 answer to 1e-9 relative.  An absolute tolerance in a
root search or a guard shows up as a wrong answer or an error at one end of
the sweep.  Where a translation applies, moving the data and re-centring the
loss must move the answer by the known amount.
"""

import numpy as np
import pytest

import wdro.numerics as numerics
from wdro.convex_analysis import NormSpec
from wdro.empirical_risk import (
    BallSpec,
    PiecewiseAffineLoss,
    QuadraticLoss,
    extremal_quadratic,
    wc_risk_pwa,
    wc_risk_quadratic,
)
from wdro.errors import NotPSD, NotSymmetric, NumericalFailure
from wdro.mmse import JointMoments, fw_solve, mmse_objective
from wdro.moment_risk import gelbrich_risk_quadratic
from wdro.shrinkage import wasserstein_shrinkage
from wdro.transport import DiscreteDistribution, MomentPair, gelbrich_distance

SCALES = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6, 1e8)
REL = 1e-9


def close(a, b, rel=REL):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def spd(rng, m, floor):
    B = rng.randn(m, m)
    return B @ B.T + floor * np.eye(m)


def test_shrinkage_precision_scales_as_one_over_s_squared():
    rng = np.random.RandomState(3)
    full = MomentPair(rng.randn(5), spd(rng, 5, 0.2))
    X = rng.randn(3, 5)  # three samples in five dimensions: rank 2
    centred = X - X.mean(axis=0)
    deficient = MomentPair(X.mean(axis=0), centred.T @ centred / 3.0)
    for base, eps in ((full, 0.3), (deficient, 0.8)):
        ref = wasserstein_shrinkage(base, eps)
        for s in SCALES:
            res = wasserstein_shrinkage(MomentPair(s * base.mu, s**2 * base.sigma), s * eps)
            assert close(res.precision * s**2, ref.precision), s
            assert close(res.gamma_star * s**2, ref.gamma_star), s
            assert close(res.mean, s * base.mu), s


def gelbrich_instance(rng, m):
    A = rng.randn(m, m)
    return QuadraticLoss(0.5 * (A + A.T), rng.randn(m)), MomentPair(rng.randn(m), spd(rng, m, 0.3))


def test_gelbrich_risk_and_extremal_moments_scale():
    rng = np.random.RandomState(5)
    cases = [gelbrich_instance(rng, 3) + (0.4,), gelbrich_instance(rng, 4) + (1.5,)]
    # Q = -I: no interior root, the dual is least at gamma = 0
    cases.append(
        (QuadraticLoss(-np.eye(2), [0.3, 0.0]), MomentPair([0.1, 0.0], 0.01 * np.eye(2)), 2.0)
    )
    for loss, center, eps in cases:
        ref = gelbrich_risk_quadratic(loss, center, eps)
        for s in SCALES:
            res = gelbrich_risk_quadratic(
                QuadraticLoss(loss.Q, s * loss.q),
                MomentPair(s * center.mu, s**2 * center.sigma),
                s * eps,
            )
            assert close(res.value / s**2, ref.value), s
            assert close(res.extremal.mu / s, ref.extremal.mu), s
            assert close(res.extremal.sigma / s**2, ref.extremal.sigma), s
            assert res.interior == ref.interior
            if res.interior:
                dist = gelbrich_distance(
                    MomentPair(s * center.mu, s**2 * center.sigma), res.extremal
                )
                assert abs(dist / (s * eps) - 1.0) <= 1e-8, s
    assert not ref.interior


def test_gelbrich_cross_check_sees_a_wrong_root_at_a_small_scale(monkeypatch):
    # a multiplier 1e-4 off moves the extremal pair, and with it the primal
    # risk, by about 1e-4 relative; at s = 1e-6 the risk is of order 1e-12,
    # and the check must still see the mismatch
    rng = np.random.RandomState(5)
    loss, center = gelbrich_instance(rng, 3)
    s = 1e-6
    args = (
        QuadraticLoss(loss.Q, s * loss.q),
        MomentPair(s * center.mu, s**2 * center.sigma),
        s * 0.4,
    )
    assert gelbrich_risk_quadratic(*args).interior
    root = numerics.secular_root
    monkeypatch.setattr(numerics, "secular_root", lambda *a: root(*a) * (1.0 + 1e-4))
    with pytest.raises(NumericalFailure, match="primal-dual mismatch"):
        gelbrich_risk_quadratic(*args)


def test_gelbrich_risk_follows_a_translation():
    # moving the mean by t and the loss's centre with it adds 2 q't - t'Qt;
    # t is taken at every scale of the sweep
    rng = np.random.RandomState(7)
    loss, center = gelbrich_instance(rng, 3)
    ref = gelbrich_risk_quadratic(loss, center, 0.4)
    for T in (rng.randn(3) * 10.0, rng.randn(3) * 1e3):
        shift = 2.0 * loss.q @ T - T @ loss.Q @ T
        terms = abs(ref.value) + abs(shift) + abs(T @ loss.Q @ T)
        for s in SCALES:
            t = s * T
            moved = gelbrich_risk_quadratic(
                QuadraticLoss(loss.Q, s * (loss.q - loss.Q @ T)),
                MomentPair(s * center.mu + t, s**2 * center.sigma),
                0.4 * s,
            )
            assert abs(moved.value / s**2 - (ref.value + shift)) <= 1e-12 * terms, s
            assert close(moved.extremal.mu / s, ref.extremal.mu + T, 1e-12 * terms / abs(ref.value)), s
            assert close(moved.extremal.sigma / s**2, ref.extremal.sigma, 1e-8), s


def quadratic_samples(rng, m, n):
    A = rng.randn(m, m)
    loss = QuadraticLoss(0.5 * (A + A.T), rng.randn(m))
    return loss, DiscreteDistribution(rng.randn(n, m), rng.dirichlet(np.ones(n)))


def scaled_quadratic(loss, samples, s):
    return QuadraticLoss(loss.Q, s * loss.q), DiscreteDistribution(s * samples.atoms, samples.weights)


def test_wc_risk_quadratic_scales():
    rng = np.random.RandomState(11)
    for m, n, eps in ((2, 5, 0.4), (3, 7, 0.2), (4, 6, 2.0)):
        loss, samples = quadratic_samples(rng, m, n)
        ref = wc_risk_quadratic(loss, samples, eps)
        for s in SCALES:
            assert close(wc_risk_quadratic(*scaled_quadratic(loss, samples, s), s * eps) / s**2, ref), s


def test_wc_risk_quadratic_follows_a_translation():
    rng = np.random.RandomState(13)
    loss, samples = quadratic_samples(rng, 3, 6)
    ref = wc_risk_quadratic(loss, samples, 0.4)
    for T in (rng.randn(3) * 10.0, rng.randn(3) * 1e3):
        shift = 2.0 * loss.q @ T - T @ loss.Q @ T
        terms = abs(ref) + abs(shift) + abs(T @ loss.Q @ T)
        for s in SCALES:
            moved = wc_risk_quadratic(
                QuadraticLoss(loss.Q, s * (loss.q - loss.Q @ T)),
                DiscreteDistribution(s * (samples.atoms + T), samples.weights),
                0.4 * s,
            )
            assert abs(moved / s**2 - (ref + shift)) <= 1e-12 * terms, s


def test_extremal_quadratic_scales():
    rng = np.random.RandomState(17)
    loss, samples = quadratic_samples(rng, 3, 5)
    # Q = diag(1, -1) with every sample on the second axis: the dual is least
    # at the boundary gamma = 1 and an atom escapes along the first axis
    escaping = (
        QuadraticLoss(np.diag([1.0, -1.0]), np.zeros(2)),
        DiscreteDistribution(np.array([[0.0, 1.0], [0.0, -0.5], [0.0, 2.0]]), None),
    )
    for (loss, samples), eps, kind in (((loss, samples), 0.4, "attained"), (escaping, 3.0, "asymptotic")):
        ref = extremal_quadratic(loss, samples, eps)
        assert ref.kind == kind
        for s in SCALES:
            res = extremal_quadratic(*scaled_quadratic(loss, samples, s), s * eps)
            assert res.kind == kind, s
            assert close(res.certified_value / s**2, ref.certified_value), s
            if kind == "attained":
                assert close(res.distribution.atoms / s, ref.distribution.atoms), s
            else:
                esc, esc_ref = res.family.escapes[0], ref.family.escapes[0]
                assert close(res.family.base_atoms / s, ref.family.base_atoms), s
                assert close(esc.coef / s**2, esc_ref.coef), s


def test_small_matrices_keep_their_checks_and_escapes():
    s = 1e-8
    # an asymmetry of 1e-6 relative, and an eigenvalue of -1e-6 relative
    with pytest.raises(NotSymmetric):
        QuadraticLoss(s * np.array([[1.0, 0.5 + 1e-6], [0.5, 1.0]]), np.zeros(2))
    with pytest.raises(NotPSD):
        MomentPair(np.zeros(2), s**2 * np.diag([1.0, -1e-6]))
    # the escaping instance of test_extremal_quadratic_scales with Q scaled
    # by 1e-13: the leftover budget must still escape along the first axis
    Q, atoms, eps = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, -0.5], [0.0, 2.0]]), 3.0
    ref = extremal_quadratic(QuadraticLoss(Q, np.zeros(2)), DiscreteDistribution(atoms, None), eps)
    res = extremal_quadratic(
        QuadraticLoss(1e-13 * Q, np.zeros(2)), DiscreteDistribution(s * atoms, None), s * eps
    )
    assert ref.kind == res.kind == "asymptotic"
    assert close(res.certified_value / (1e-13 * s**2), ref.certified_value)
    assert close(res.family.base_atoms / s, ref.family.base_atoms)


def pwa_instance(rng, m, J, n):
    A, b = rng.randn(J, m), rng.randn(J)
    return A, b, rng.randn(n, m), rng.dirichlet(np.ones(n))


def test_type2_whole_space_pwa_scales():
    rng = np.random.RandomState(19)
    for norm in (NormSpec.p_norm(2), NormSpec.p_norm(1), NormSpec.p_norm(np.inf)):
        for m, J, n, eps in ((2, 4, 6, 0.3), (3, 5, 8, 2.0)):
            A, b, X, w = pwa_instance(rng, m, J, n)

            def value(s):
                loss = PiecewiseAffineLoss(list(zip(A, s * b)))
                return wc_risk_pwa(loss, DiscreteDistribution(s * X, w), BallSpec(s * eps, 2.0, norm))

            ref = value(1.0)
            for s in SCALES:
                assert close(value(s) / s, ref), s


def test_type2_whole_space_pwa_follows_a_translation():
    # moving the atoms by t and each piece's intercept by -a_j't leaves every
    # loss value, hence the worst case, unchanged
    rng = np.random.RandomState(23)
    A, b, X, w = pwa_instance(rng, 2, 4, 6)
    ref = wc_risk_pwa(
        PiecewiseAffineLoss(list(zip(A, b))), DiscreteDistribution(X, w), BallSpec(0.3, 2.0)
    )
    for T in (rng.randn(2) * 10.0, rng.randn(2) * 1e4):
        for s in SCALES:
            loss = PiecewiseAffineLoss(list(zip(A, s * (b - A @ T))))
            moved = wc_risk_pwa(loss, DiscreteDistribution(s * (X + T), w), BallSpec(0.3 * s, 2.0))
            assert abs(moved / s - ref) <= 1e-12 * (abs(ref) + np.abs(A @ T).max()), s


def test_fw_solve_scales():
    rng = np.random.RandomState(29)
    cov = spd(rng, 6, 0.4)
    mean = rng.randn(6)
    ref = fw_solve(JointMoments(3, 3, mean, cov), 0.3, iters=200)
    assert len(ref.gaps) < 200  # the count compared below is the run's, not the cap
    ref_value = mmse_objective(ref.S, 3)
    for s in SCALES:
        res = fw_solve(JointMoments(3, 3, s * mean, s**2 * cov), 0.3 * s, iters=200)
        assert len(res.gaps) == len(ref.gaps), s
        assert close(mmse_objective(res.S, 3) / s**2, ref_value), s
        assert close(res.S / s**2, ref.S), s
        assert close(res.estimator.gain, ref.estimator.gain), s
        dist = gelbrich_distance(
            MomentPair(np.zeros(6), s**2 * cov), MomentPair(np.zeros(6), res.S)
        )
        assert dist <= 0.3 * s * (1.0 + 1e-9), s
