"""Tests for robust MMSE estimation via Frank-Wolfe."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import wdro.mmse as mmse_module
import wdro.numerics as numerics
from wdro.empirical_risk import QuadraticLoss
from wdro.errors import NotPSD, SingularBlock
from wdro.mmse import (
    AffineEstimator,
    JointMoments,
    RobustMMSE,
    fw_direction,
    fw_iterates,
    fw_solve,
    mmse_gradient,
    mmse_objective,
)
from wdro.moment_risk import gelbrich_risk_quadratic
from wdro.numerics import DEFAULT_TOL
from wdro.transport import MomentPair, gelbrich_distance


def schur_oracle(S, mx):
    """Objective via an explicit dense inverse."""
    S = np.asarray(S, dtype=float)
    S_xx = S[:mx, :mx]
    S_xy = S[:mx, mx:]
    S_yy = S[mx:, mx:]
    return float(np.trace(S_xx - S_xy @ np.linalg.inv(S_yy) @ S_xy.T))


def scalar_direction_oracle(g, eps):
    """1-D case with nominal variance 1: gamma = g (1 + 1/eps), D = gamma^2/(gamma-g)^2."""
    gamma = g * (1.0 + 1.0 / eps)
    return gamma, gamma**2 / (gamma - g) ** 2


def random_feasible_S(rng, mx, my):
    m = mx + my
    A = rng.randn(m, m)
    return A @ A.T + 0.5 * np.eye(m)


def test_objective_examples():
    S = np.diag([2.0, 3.0, 0.5, 0.7])
    assert abs(mmse_objective(S, 2) - 5.0) < 1e-14  # block diagonal: Tr[S_xx]
    corr = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    assert abs(mmse_objective(corr, 1)) < 1e-10  # perfect correlation: zero MMSE
    rng = np.random.RandomState(2)
    S = random_feasible_S(rng, 3, 2)
    assert abs(mmse_objective(S, 3) - schur_oracle(S, 3)) < 1e-11


def test_objective_rejects_singular_block():
    S = np.diag([1.0, 0.0])
    with pytest.raises(SingularBlock):
        mmse_objective(S, 1)


def test_gradient_block_diagonal_case():
    S = np.diag([2.0, 3.0, 0.5, 0.7])
    grad = mmse_gradient(S, 2)
    expected = np.diag([1.0, 1.0, 0.0, 0.0])
    assert np.max(np.abs(grad - expected)) < 1e-14


def test_gradient_finite_differences():
    rng = np.random.RandomState(5)
    S = random_feasible_S(rng, 2, 2)
    grad = mmse_gradient(S, 2)
    assert np.max(np.abs(grad - grad.T)) < 1e-12
    h = 1e-5
    for _ in range(6):
        H = rng.randn(4, 4)
        H = 0.5 * (H + H.T)
        fd = (mmse_objective(S + h * H, 2) - mmse_objective(S - h * H, 2)) / (2.0 * h)
        inner = float(np.sum(grad * H))
        assert abs(fd - inner) <= 1e-5 * (1.0 + abs(inner))


def test_direction_scalar_example():
    gamma_ref, d_ref = scalar_direction_oracle(0.5, 0.25)
    assert gamma_ref == 2.5 and abs(d_ref - 1.5625) < 1e-15
    res = fw_direction([[0.5]], [[1.0]], 0.25)
    assert abs(res.gamma_star - gamma_ref) < 1e-9
    assert abs(res.D[0, 0] - d_ref) < 1e-9
    assert res.trace_residual <= 1e-8


def test_direction_zero_gradient_returns_center():
    res = fw_direction(np.zeros((2, 2)), np.diag([1.0, 2.0]), 0.5)
    assert np.all(res.D == np.diag([1.0, 2.0]))
    assert math.isinf(res.gamma_star)


def test_direction_boundary_and_floor():
    rng = np.random.RandomState(7)
    for _ in range(5):
        m = rng.randint(2, 5)
        B = rng.randn(m, m)
        sigma = B @ B.T + 0.3 * np.eye(m)
        A = rng.randn(m, m)
        grad = A @ A.T  # PSD, like the MMSE gradient
        eps = float(rng.uniform(0.2, 1.0))
        res = fw_direction(grad, sigma, eps)
        assert res.trace_residual <= 1e-8
        # the maximizer of Tr[grad . D] does not change when grad is scaled
        for s in (1e-100, 1e-20, 1e20, 1e100):
            scaled = fw_direction(s * grad, sigma, eps)
            assert np.max(np.abs(scaled.D - res.D)) <= 1e-12 * np.max(np.abs(res.D)), s
            assert abs(scaled.gamma_star - s * res.gamma_star) <= 1e-12 * s * res.gamma_star, s
        lam_floor = np.linalg.eigvalsh(sigma).min()
        assert np.linalg.eigvalsh(res.D).min() >= lam_floor - 1e-8
        # the direction maximizes the linear objective among feasible points
        base = float(np.sum(grad * res.D))
        zero = np.zeros(m)
        for _ in range(50):
            C = res.D + 0.1 * rng.randn(m, m)
            C = 0.5 * (C + C.T)
            w = np.linalg.eigvalsh(C)
            if w.min() < 0:
                continue
            dist = gelbrich_distance(MomentPair(zero, sigma), MomentPair(zero, C))
            if dist > eps:
                continue
            assert float(np.sum(grad * C)) <= base + 1e-7


def test_direction_rejects_a_gradient_that_is_not_psd():
    # mmse_gradient is PSD; any other gradient has no direction with the
    # eigenvalue floor D >= lam_min(Sigma) I, and is refused
    with pytest.raises(NotPSD):
        fw_direction(np.diag([1.0, -0.5]), np.eye(2), 0.3)
    with pytest.raises(NotPSD):
        fw_direction(-np.eye(3), np.eye(3), 0.3)


def test_direction_trace_residual_agrees_with_gelbrich_distance(monkeypatch):
    # the residual is read in the eigenbasis of grad; gelbrich_distance takes
    # two matrix square roots.  A multiplier off its root makes both nonzero.
    rng = np.random.RandomState(43)
    cases = []
    for _ in range(12):
        m = rng.randint(1, 7)
        B = rng.randn(m, m)
        A = rng.randn(m, m)
        cases.append((A @ A.T, B @ B.T + 0.1 * np.eye(m), float(rng.uniform(0.05, 2.0))))
    for off in (1.0, 1.01, 0.999):
        exact = numerics.secular_root
        monkeypatch.setattr(numerics, "secular_root", lambda *args: off * exact(*args))
        for grad, sigma, eps in cases:
            res = fw_direction(grad, sigma, eps)
            zero = np.zeros(sigma.shape[0])
            dist2 = gelbrich_distance(MomentPair(zero, sigma), MomentPair(zero, res.D)) ** 2
            scale = np.trace(sigma) + eps**2
            assert abs(res.trace_residual - abs(dist2 - eps**2)) <= 1e-10 * scale
            if off == 1.0:
                assert res.trace_residual <= 1e-12 * scale
            else:
                assert res.trace_residual >= 1e-6 * eps**2
        monkeypatch.undo()


def test_step_maximizes_the_objective_on_the_segment():
    rng = np.random.RandomState(41)
    for _ in range(4):
        cov = random_feasible_S(rng, 2, 3)
        eps = float(rng.uniform(0.2, 0.8))
        states = list(fw_iterates(JointMoments(2, 3, np.zeros(5), cov), eps, iters=6))
        for now, after in zip(states, states[1:]):
            E = fw_direction(mmse_gradient(now.S, 2), cov, eps).D - now.S
            ref = minimize_scalar(
                lambda t: -mmse_objective(now.S + t * E, 2),
                bounds=(0.0, 1.0),
                method="bounded",
                options={"xatol": 1e-12},
            )
            t = np.sum((after.S - now.S) * E) / np.sum(E * E)
            assert 0.0 < t <= 1.0
            assert abs(t - ref.x) <= 1e-6, (t, ref.x)
            assert after.value >= -ref.fun - 1e-12 * abs(ref.fun)


def test_exact_line_search_reaches_small_gaps_in_few_steps():
    # the open-loop step 2/(k+2) needs hundreds of steps for these gaps
    rng = np.random.RandomState(47)
    for _ in range(5):
        cov = random_feasible_S(rng, 3, 3)
        eps = float(rng.uniform(0.2, 0.8))
        states = list(fw_iterates(JointMoments(3, 3, np.zeros(6), cov), eps, iters=30))
        assert min(state.gap for state in states) <= 1e-7


def test_zero_radius_recovers_classical_estimator():
    rng = np.random.RandomState(11)
    cov = random_feasible_S(rng, 2, 2)
    mean = rng.randn(4)
    nominal = JointMoments(2, 2, mean, cov)
    res = fw_solve(nominal, 0.0, iters=5)
    assert np.max(np.abs(res.S - cov)) < 1e-12
    gain_ref = cov[:2, 2:] @ np.linalg.inv(cov[2:, 2:])
    assert np.max(np.abs(res.estimator.gain - gain_ref)) < 1e-10
    offset_ref = mean[:2] - gain_ref @ mean[2:]
    assert np.max(np.abs(res.estimator.offset - offset_ref)) < 1e-10


def test_block_diagonal_nominal_keeps_zero_gain():
    cov = np.diag([1.0, 2.0, 3.0, 4.0])
    nominal = JointMoments(2, 2, np.array([1.0, -1.0, 0.5, 2.0]), cov)
    res = fw_solve(nominal, 0.4, iters=60)
    assert np.max(np.abs(res.estimator.gain)) < 1e-10
    pred = res.estimator.predict(np.array([9.0, -9.0]))
    assert np.max(np.abs(pred - np.array([1.0, -1.0]))) < 1e-10


def test_iterates_feasible_and_gap_envelope():
    rng = np.random.RandomState(13)
    for _ in range(10):
        cov = random_feasible_S(rng, 3, 3)
        nominal = JointMoments(3, 3, rng.randn(6), cov)
        eps = float(rng.uniform(0.2, 0.8))
        states = list(fw_iterates(nominal, eps, iters=1000))
        lam_floor = np.linalg.eigvalsh(cov).min()
        zero = np.zeros(6)
        center = MomentPair(zero, cov)
        for state in states[:: max(1, len(states) // 25)]:
            dist = gelbrich_distance(center, MomentPair(zero, state.S))
            assert dist**2 <= eps**2 + 1e-6
            assert np.linalg.eigvalsh(state.S).min() >= lam_floor - 1e-6
        gaps = np.array([state.gap for state in states])
        assert np.all(gaps >= -1e-9)
        C = max(gaps[k] * (k + 2.0) for k in range(min(10, len(gaps))))
        for k, gap in enumerate(gaps):
            assert gap <= C / (k + 2.0) + 1e-9


def test_gap_decreases_and_best_value_monotone():
    rng = np.random.RandomState(17)
    cov = random_feasible_S(rng, 2, 2)
    nominal = JointMoments(2, 2, rng.randn(4), cov)
    states = list(fw_iterates(nominal, 0.5, iters=500))
    gaps = [s.gap for s in states]
    # the run stops at its gap target, long before the iteration cap
    assert len(states) < 500
    assert gaps[-1] <= DEFAULT_TOL.rel_tol * np.trace(cov) < min(gaps[:-1])
    values = [s.value for s in states]
    # each step maximizes f on a segment from the iterate, so f never falls
    assert np.all(np.diff(values) >= 0.0)
    best = np.maximum.accumulate(values)
    assert np.all(np.diff(best) >= -1e-12)
    # the gap certifies the distance to the optimum
    assert best[-1] + gaps[-1] >= max(values) - 1e-12
    # under a cap, fw_solve keeps the generator's return value: one step on
    for cap in (1, 2, 3):
        iterates = fw_iterates(nominal, 0.5, iters=cap)
        with pytest.raises(StopIteration) as done:
            while True:
                next(iterates)
        assert np.array_equal(fw_solve(nominal, 0.5, iters=cap).S, done.value.value)


def test_target_met_says_whether_the_gap_target_was_reached():
    rng = np.random.RandomState(17)
    cov = random_feasible_S(rng, 2, 2)
    nominal = JointMoments(2, 2, rng.randn(4), cov)
    res = fw_solve(nominal, 0.5)
    assert res.target_met is True
    assert res.gaps[-1] <= DEFAULT_TOL.rel_tol * np.trace(cov)
    capped = fw_solve(nominal, 0.5, iters=1)
    assert capped.target_met is False
    assert capped.gaps[-1] > DEFAULT_TOL.rel_tol * np.trace(cov)
    # a result built by hand claims nothing
    by_hand = mmse_module.FWSolveResult(res.S, res.estimator, res.gaps, res.regularization)
    assert by_hand.target_met is False


def test_value_monotone_in_radius():
    rng = np.random.RandomState(19)
    cov = random_feasible_S(rng, 2, 2)
    nominal = JointMoments(2, 2, np.zeros(4), cov)
    prev, prev_gap = None, 0.0
    for eps in (0.0, 0.1, 0.5, 1.0):
        res = fw_solve(nominal, eps, iters=400)
        value = mmse_objective(res.S, 2)
        if prev is not None:
            assert value >= prev - prev_gap - 1e-9
        prev, prev_gap = value, (res.gaps[-1] if res.gaps else 0.0)


def test_singular_nominal_is_regularized():
    cov = np.diag([1.0, 1.0, 1.0, 0.0])
    nominal = JointMoments(2, 2, np.zeros(4), cov)
    res = fw_solve(nominal, 0.2, iters=30)
    assert res.regularization > 0.0
    assert np.isfinite(res.estimator.gain).all()
    # the same lift as the worst-case quadratic risk on the same covariance
    loss = QuadraticLoss(np.eye(4), np.zeros(4))
    risk = gelbrich_risk_quadratic(loss, MomentPair(np.zeros(4), cov), 0.2)
    assert res.regularization == risk.regularization
    # the lift is decided on the stored spectrum, relative to its largest
    # eigenvalue, so it holds at every scale: a rank-deficient nominal is
    # lifted by the same amount in both places, a full-rank one is not
    B = np.random.RandomState(41).randn(4, 3)
    for s in 10.0 ** np.arange(-12, 9):
        for cov, lifted in ((s * (B @ B.T), True), (s * (B @ B.T + 0.1 * np.eye(4)), False)):
            res = fw_solve(JointMoments(2, 2, np.zeros(4), cov), 0.2 * math.sqrt(s), iters=30)
            risk = gelbrich_risk_quadratic(loss, MomentPair(np.zeros(4), cov), 0.2 * math.sqrt(s))
            assert (res.regularization > 0.0) == lifted
            assert res.regularization == risk.regularization
            assert res.regularization == (1e-10 * np.trace(cov) / 4 if lifted else 0.0)


def test_estimator_wrapper_roundtrip():
    rng = np.random.RandomState(23)
    a = rng.randn(300, 2)
    X = a @ np.array([[1.0, 0.3], [0.0, 0.5]])
    Y = X @ np.array([[0.8], [0.2]]) + 0.1 * rng.randn(300, 1)
    est = RobustMMSE(eps=0.1, iters=100).fit(X, Y)
    assert est.get_params() == {"eps": 0.1, "iters": 100}
    pred = est.predict(Y)
    assert pred.shape == X.shape
    resid = float(np.mean(np.sum((pred - X) ** 2, axis=1)))
    base = float(np.mean(np.sum((X - X.mean(axis=0)) ** 2, axis=1)))
    assert resid < base  # using Y helps
    with pytest.raises(ValueError):
        RobustMMSE().set_params(bogus=1)
    # an unknown key sets nothing, not even the keys before it
    with pytest.raises(ValueError):
        est.set_params(eps=0.5, iters=7, bogus=1)
    assert est.get_params() == {"eps": 0.1, "iters": 100}
    with pytest.raises(ValueError):
        RobustMMSE().fit(X, Y[:10])


def test_affine_estimator_batch_predict():
    est = AffineEstimator(gain=np.array([[2.0, 0.0]]), offset=np.array([1.0]))
    single = est.predict([3.0, 5.0])
    batch = est.predict([[3.0, 5.0], [0.0, 1.0]])
    assert single.shape == (1,)
    assert np.all(batch == np.array([[7.0], [1.0]]))


def test_joint_moments_validation():
    with pytest.raises(ValueError):
        JointMoments(2, 2, np.zeros(3), np.eye(4))


@pytest.mark.parametrize("mx,my", [(-1, 4), (3, 0), (0, 3)])
def test_joint_moments_rejects_empty_or_negative_blocks(mx, my):
    # sizes that sum to the dimension but leave a block empty or negative
    with pytest.raises(ValueError, match="mx >= 1 and my >= 1"):
        JointMoments(mx, my, np.zeros(3), np.eye(3))
