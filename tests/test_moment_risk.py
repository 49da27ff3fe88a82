"""Tests for worst-case quadratic risk over Gelbrich moment sets.

The scalar oracles work in (mean, standard deviation) coordinates, where
the distance between moment pairs is plain Euclidean: the feasible set is
a disk and the worst case can be read off a dense polar grid.
"""

import math

import numpy as np
import pytest
from scipy import stats

from wdro.empirical_risk import QuadraticLoss, wc_risk_quadratic
from wdro.errors import DimensionMismatch, UnsupportedCase
from wdro.moment_risk import (
    EllipticalSpec,
    GelbrichBall,
    gelbrich_hull_contains,
    gelbrich_risk_quadratic,
    projection_check,
    support_V,
    wc_risk_elliptical_quadratic,
)
from wdro.transport import DiscreteDistribution, MomentPair, gelbrich_distance, moments


def disk_oracle(a, b, mu_hat, sd_hat, eps, n_theta=2001, n_r=301):
    """Maximize a*(sd^2 + mu^2) + 2*b*mu over the scalar moment disk.

    Feasible points are (mu, sd) with (mu - mu_hat)^2 + (sd - sd_hat)^2
    <= eps^2 and sd >= 0, scanned on a dense polar grid.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta)
    r = np.linspace(0.0, eps, n_r)
    mu = mu_hat + r[:, None] * np.cos(theta)[None, :]
    sd = sd_hat + r[:, None] * np.sin(theta)[None, :]
    ok = sd >= 0.0
    vals = a * (sd**2 + mu**2) + 2.0 * b * mu
    return float(vals[ok].max())


def mean_shift_oracle(q, mu_hat, eps, n=20001, seed=7):
    """Maximize 2 q'(mu_hat + eps*u) over random unit directions u."""
    rng = np.random.RandomState(seed)
    u = rng.randn(n, q.size)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    vals = 2.0 * (mu_hat + eps * u) @ q
    return float(vals.max())


# frozen closed-form targets the oracles must reproduce
SCALAR_IDENTITY_VALUE = 2.25  # a=1, b=0, center (0, 1), eps = 0.5 -> (1 + eps)^2
MEAN_SHIFT_VALUE = 0.5  # q=(3,4), mu_hat=(1,-1), eps=0.25 -> 2 q'mu_hat + 2 eps ||q||


def test_disk_oracle_matches_closed_form():
    assert abs(disk_oracle(1.0, 0.0, 0.0, 1.0, 0.5) - SCALAR_IDENTITY_VALUE) < 1e-5
    assert abs(disk_oracle(1.0, 0.0, 0.0, 1.0, 0.3) - 1.3**2) < 1e-5


def test_mean_shift_oracle_matches_closed_form():
    q = np.array([3.0, 4.0])
    mu_hat = np.array([1.0, -1.0])
    got = mean_shift_oracle(q, mu_hat, 0.25)
    assert got <= MEAN_SHIFT_VALUE + 1e-12
    assert got > MEAN_SHIFT_VALUE - 1e-3


def test_scalar_identity_example():
    loss = QuadraticLoss([[1.0]], [0.0])
    center = MomentPair([0.0], [[1.0]])
    res = gelbrich_risk_quadratic(loss, center, 0.5)
    assert abs(res.value - SCALAR_IDENTITY_VALUE) < 1e-8
    assert res.interior
    assert abs(res.extremal.mu[0]) < 1e-8
    assert abs(res.extremal.sigma[0, 0] - 1.5**2) < 1e-7
    assert abs(gelbrich_distance(center, res.extremal) - 0.5) < 1e-6


def test_mean_shift_closed_form():
    loss = QuadraticLoss(np.zeros((2, 2)), [3.0, 4.0])
    center = MomentPair([1.0, -1.0], np.diag([0.2, 0.7]))
    res = gelbrich_risk_quadratic(loss, center, 0.25)
    assert abs(res.value - MEAN_SHIFT_VALUE) < 1e-12
    expected_mu = np.array([1.0, -1.0]) + 0.25 * np.array([3.0, 4.0]) / 5.0
    assert np.max(np.abs(res.extremal.mu - expected_mu)) < 1e-12
    assert np.max(np.abs(res.extremal.sigma - np.diag([0.2, 0.7]))) < 1e-12
    oracle = mean_shift_oracle(np.array([3.0, 4.0]), np.array([1.0, -1.0]), 0.25)
    assert res.value >= oracle - 1e-12


def test_scalar_random_instances_vs_disk_oracle():
    rng = np.random.RandomState(31)
    for _ in range(12):
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        mu_hat = float(rng.uniform(-1.0, 1.0))
        sd_hat = float(rng.uniform(0.2, 2.0))
        eps = float(rng.uniform(0.1, 1.0))
        loss = QuadraticLoss([[a]], [b])
        center = MomentPair([mu_hat], [[sd_hat**2]])
        res = gelbrich_risk_quadratic(loss, center, eps)
        oracle = disk_oracle(a, b, mu_hat, sd_hat, eps)
        scale = 1.0 + abs(res.value)
        # every grid point is feasible, and the grid nearly attains the sup
        assert res.value >= oracle - 1e-8 * scale
        assert res.value <= oracle + 5e-4 * scale


def test_primal_dual_agreement_and_boundary():
    rng = np.random.RandomState(5)
    for m in (2, 3, 4):
        for _ in range(4):
            A = rng.randn(m, m)
            Q = 0.5 * (A + A.T)
            q = rng.randn(m)
            B = rng.randn(m, m)
            center = MomentPair(rng.randn(m), B @ B.T + 0.3 * np.eye(m))
            eps = float(rng.uniform(0.2, 1.5))
            res = gelbrich_risk_quadratic(QuadraticLoss(Q, q), center, eps)
            assert abs(res.value - res.primal_value) <= 1e-7 * (1.0 + abs(res.value))
            if res.interior:
                assert abs(gelbrich_distance(center, res.extremal) - eps) < 1e-6


def test_psd_loss_keeps_covariance_dominated():
    rng = np.random.RandomState(11)
    for _ in range(6):
        m = rng.randint(2, 4)
        A = rng.randn(m, m)
        Q = A @ A.T
        B = rng.randn(m, m)
        sigma_hat = B @ B.T + 0.2 * np.eye(m)
        center = MomentPair(rng.randn(m), sigma_hat)
        res = gelbrich_risk_quadratic(QuadraticLoss(Q, rng.randn(m)), center, 0.7)
        lam_min_hat = float(np.linalg.eigvalsh(sigma_hat).min())
        lam_min_star = float(np.linalg.eigvalsh(res.extremal.sigma).min())
        assert lam_min_star >= lam_min_hat - 1e-8


def test_feasible_points_never_beat_value():
    rng = np.random.RandomState(23)
    m = 3
    A = rng.randn(m, m)
    Q = 0.5 * (A + A.T)
    q = rng.randn(m)
    B = rng.randn(m, m)
    center = MomentPair(rng.randn(m), B @ B.T + 0.5 * np.eye(m))
    eps = 0.8
    loss = QuadraticLoss(Q, q)
    res = gelbrich_risk_quadratic(loss, center, eps)
    root = np.linalg.cholesky(center.sigma)
    count = 0
    while count < 500:
        scale = rng.uniform(0.05, 0.5)
        mu = center.mu + scale * rng.randn(m)
        E = rng.randn(m, m)
        R = root + scale * 0.5 * (E + E.T)
        cand = MomentPair(mu, R @ R.T)
        if gelbrich_distance(center, cand) > eps:
            continue
        count += 1
        risk = float(np.trace(Q @ cand.sigma) + cand.mu @ Q @ cand.mu + 2.0 * q @ cand.mu)
        assert risk <= res.value + 1e-7


def test_support_function_positive_homogeneity():
    rng = np.random.RandomState(3)
    m = 2
    q = rng.randn(m)
    A = rng.randn(m, m)
    Qm = 0.5 * (A + A.T)
    center = MomentPair(rng.randn(m), np.eye(m) + 0.1 * np.outer([1.0, 0.5], [1.0, 0.5]))
    base = support_V(q, Qm, center, 0.6)
    for alpha in (0.5, 2.0, 3.7):
        scaled = support_V(alpha * q, alpha * Qm, center, 0.6)
        assert abs(scaled - alpha * base) <= 1e-7 * (1.0 + abs(alpha * base))


def test_support_function_linear_direction():
    center = MomentPair([0.5, 0.0], np.diag([0.3, 0.4]))
    q = np.array([1.0, 2.0])
    got = support_V(q, np.zeros((2, 2)), center, 0.3)
    expected = 0.5 + 0.3 * math.sqrt(5.0)
    assert abs(got - expected) < 1e-10
    assert support_V(np.zeros(2), np.zeros((2, 2)), center, 0.3) == 0.0


def test_elliptical_value_generator_independent():
    rng = np.random.RandomState(9)
    m = 3
    A = rng.randn(m, m)
    loss = QuadraticLoss(0.5 * (A + A.T), rng.randn(m))
    B = rng.randn(m, m)
    mp = MomentPair(rng.randn(m), B @ B.T + 0.4 * np.eye(m))
    specs = [
        EllipticalSpec("gaussian", mp),
        EllipticalSpec("logistic", mp),
        EllipticalSpec("t", mp, nu=5.0),
    ]
    values = []
    for spec in specs:
        value, extremal = wc_risk_elliptical_quadratic(loss, spec, 0.5)
        values.append(value)
        assert extremal.generator == spec.generator
        assert extremal.nu == spec.nu
    assert max(values) - min(values) < 1e-12
    ref = gelbrich_risk_quadratic(loss, mp, 0.5)
    assert abs(values[0] - ref.value) < 1e-12


def test_elliptical_gaussian_sampling_and_logpdf():
    mp = MomentPair([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
    spec = EllipticalSpec("gaussian", mp)
    rng = np.random.RandomState(17)
    xs = spec.sample(rng, 40000)
    assert np.max(np.abs(xs.mean(axis=0) - mp.mu)) < 0.05
    emp_cov = np.cov(xs.T)
    assert np.max(np.abs(emp_cov - mp.sigma)) < 0.08
    ref = stats.multivariate_normal(mean=mp.mu, cov=mp.sigma)
    for point in ([0.0, 0.0], [1.0, -2.0], [3.0, 1.0]):
        assert abs(spec.logpdf(point) - ref.logpdf(point)) < 1e-9
    with pytest.raises(UnsupportedCase):
        EllipticalSpec("logistic", mp).sample(rng, 5)
    with pytest.raises(ValueError):
        EllipticalSpec("t", mp, nu=1.5)
    with pytest.raises(ValueError):
        EllipticalSpec("cauchy", mp)


def test_hull_contains_boundary_example():
    ball = GelbrichBall(MomentPair([0.0], [[1.0]]), 1.0)
    on_boundary = MomentPair([0.6], [[1.8**2]])
    assert abs(gelbrich_distance(ball.center, on_boundary) - 1.0) < 1e-12
    assert gelbrich_hull_contains(ball, on_boundary)
    outside = MomentPair([0.7], [[1.8**2]])
    assert not gelbrich_hull_contains(ball, outside)
    with pytest.raises(DimensionMismatch):
        gelbrich_hull_contains(ball, MomentPair([0.0, 0.0], np.eye(2)))


def test_projection_check_random_instances():
    rng = np.random.RandomState(41)
    for _ in range(8):
        m = rng.randint(1, 3)
        ref = DiscreteDistribution(rng.randn(5, m))
        ball = GelbrichBall(moments(ref), float(rng.uniform(0.3, 1.2)))
        shift = rng.randn(5, m) * rng.uniform(0.05, 0.6)
        Q = DiscreteDistribution(ref.atoms + shift)
        assert projection_check(ball, Q, ref)
    ref = DiscreteDistribution([[0.0], [1.0]])
    ball = GelbrichBall(moments(ref), 0.1)
    far = DiscreteDistribution([[10.0], [11.0]])
    assert projection_check(ball, far, ref)  # premise false, implication holds
    with pytest.raises(ValueError):
        projection_check(GelbrichBall(MomentPair([5.0], [[1.0]]), 0.1), far, ref)
    with pytest.raises(ValueError):
        projection_check(ball, far, ref, p=1.0)


def test_moment_ball_dominates_empirical_ball():
    rng = np.random.RandomState(13)
    for _ in range(8):
        m = rng.randint(1, 4)
        n = rng.randint(3, 7)
        samples = DiscreteDistribution(rng.randn(n, m))
        A = rng.randn(m, m)
        loss = QuadraticLoss(0.5 * (A + A.T), rng.randn(m))
        eps = float(rng.uniform(0.2, 1.0))
        empirical = wc_risk_quadratic(loss, samples, eps)
        hull = gelbrich_risk_quadratic(loss, moments(samples), eps)
        assert empirical <= hull.value + 1e-6


def test_no_interior_solution_reports_dual_infimum():
    center = MomentPair([0.1, 0.0], 0.01 * np.eye(2))
    res = gelbrich_risk_quadratic(QuadraticLoss(-np.eye(2), np.zeros(2)), center, 2.0)
    assert not res.interior
    assert abs(res.value) < 1e-6
    assert abs(res.primal_value - res.value) < 1e-6
    res2 = gelbrich_risk_quadratic(
        QuadraticLoss(-np.eye(2), np.array([0.3, 0.0])),
        MomentPair(np.zeros(2), 0.01 * np.eye(2)),
        2.0,
    )
    assert not res2.interior
    assert abs(res2.value - 0.09) < 1e-6


def test_value_monotone_in_radius():
    rng = np.random.RandomState(29)
    A = rng.randn(3, 3)
    loss = QuadraticLoss(0.5 * (A + A.T), rng.randn(3))
    B = rng.randn(3, 3)
    center = MomentPair(rng.randn(3), B @ B.T + 0.3 * np.eye(3))
    radii = [0.1, 0.3, 0.7, 1.5]
    values = [gelbrich_risk_quadratic(loss, center, e).value for e in radii]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-9


def test_tiny_radius_recovers_nominal_risk():
    rng = np.random.RandomState(37)
    A = rng.randn(3, 3)
    Q = 0.5 * (A + A.T)
    q = rng.randn(3)
    B = rng.randn(3, 3)
    center = MomentPair(rng.randn(3), B @ B.T + 0.3 * np.eye(3))
    nominal = float(np.trace(Q @ center.sigma) + center.mu @ Q @ center.mu + 2.0 * q @ center.mu)
    res = gelbrich_risk_quadratic(QuadraticLoss(Q, q), center, 1e-8)
    assert abs(res.value - nominal) < 1e-5 * (1.0 + abs(nominal))


def test_rank_deficient_center_is_regularized():
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    singular = MomentPair([0.0, 0.0], np.diag([1.0, 0.0]))
    res = gelbrich_risk_quadratic(loss, singular, 0.5)
    assert res.regularization > 0.0
    nudged = MomentPair([0.0, 0.0], np.diag([1.0, 1e-9]))
    res_full = gelbrich_risk_quadratic(loss, nudged, 0.5)
    assert abs(res.value - res_full.value) < 1e-4
    full = MomentPair([0.0, 0.0], np.eye(2))
    assert gelbrich_risk_quadratic(loss, full, 0.5).regularization == 0.0
    # the decision reads the center's stored spectrum, relative to its
    # largest eigenvalue, at every scale
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    for s in 10.0 ** np.arange(-12, 9):
        eps = 0.5 * math.sqrt(s)
        singular = MomentPair([0.0, 0.0], s * rotation @ np.diag([1.0, 0.0]) @ rotation.T)
        res = gelbrich_risk_quadratic(loss, singular, eps)
        assert res.regularization == 1e-10 * np.trace(singular.sigma) / 2
        full = MomentPair([0.0, 0.0], s * rotation @ np.diag([1.0, 1e-6]) @ rotation.T)
        assert gelbrich_risk_quadratic(loss, full, eps).regularization == 0.0


def test_rejects_bad_inputs():
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    center = MomentPair([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        gelbrich_risk_quadratic(loss, center, 0.0)
    with pytest.raises(DimensionMismatch):
        gelbrich_risk_quadratic(loss, MomentPair([0.0], [[1.0]]), 0.5)
    with pytest.raises(ValueError):
        GelbrichBall(center, -0.1)
