"""The gap of a robust training run bounds its true suboptimality.

Each case trains, computes an independent reference point (HiGHS on the LP
form of the piecewise-linear problems, scipy's BFGS or least squares on the
smooth ones) and evaluates the exact objective there, which is at least the
optimum.  The excess of the returned objective over that value is then at
most the true suboptimality, so it must not exceed the reported gap; and the
gap must meet the training target, 10 * rel_tol of the objective.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from wdro.convex_analysis import NormSpec
from wdro.learn import (
    UnivariateLoss,
    classification_objective,
    dro_train_classifier,
    dro_train_regressor,
    regression_objective,
)
from wdro.numerics import DEFAULT_TOL

TARGET = 10.0 * DEFAULT_TOL.rel_tol
ULP = np.finfo(float).eps
CLASSIFICATION = ("hinge", "smooth_hinge", "logloss")


def _data(rng, kind, N, d):
    X = rng.normal(size=(N, d))
    score = X @ rng.normal(size=d)
    if kind in CLASSIFICATION:
        return X, np.where(score + 0.5 * rng.normal(size=N) >= 0.0, 1.0, -1.0)
    return X, score + 0.3 * rng.normal(size=N)


def _lp_weights(loss, X, y, eps, input_p):
    """Optimal weights of a piecewise-linear loss plus a polyhedral dual norm, by HiGHS."""
    N, d = X.shape
    Z, off = (y[:, None] * X, np.zeros(N)) if loss.is_classification else (X, -y)
    n_pen = d if input_p == math.inf else 1  # |w_k| <= u_k, or |w_k| <= t
    n = d + N + n_pen
    rows, rhs = [], []
    for slope, icpt in loss.pieces():  # s_i >= slope * (Z_i w + off_i) + icpt
        R = np.zeros((N, n))
        R[:, :d] = slope * Z
        R[np.arange(N), d + np.arange(N)] = -1.0
        rows.append(R)
        rhs.append(-slope * off - icpt)
    for sign in (1.0, -1.0):
        R = np.zeros((d, n))
        R[:, :d] = sign * np.eye(d)
        R[np.arange(d), d + N + (np.arange(d) if n_pen == d else 0)] = -1.0
        rows.append(R)
        rhs.append(np.zeros(d))
    cost = np.concatenate([np.zeros(d), np.full(N, 1.0 / N), np.full(n_pen, eps * loss.lipschitz)])
    bounds = [(None, None)] * (d + N) + [(0.0, None)] * n_pen
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), bounds=bounds, method="highs-ds")
    assert res.status == 0, res.message
    return res.x[:d]


def _objective(loss, X, y, eps, norm, w):
    if loss.is_classification:
        return classification_objective(w, X, y, loss, eps, norm)
    p = 2.0 if loss.kind == "squared" else 1.0
    return regression_objective(w, X, y, loss, eps, p, norm)


def _train(loss, X, y, eps, norm):
    if loss.is_classification:
        return dro_train_classifier(X, y, loss, eps, input_norm=norm)
    p = 2.0 if loss.kind == "squared" else 1.0
    return dro_train_regressor(X, y, loss, eps, p, input_norm=norm)


def _bfgs_weights(loss, X, y, eps):
    """Smooth loss plus eps times the Euclidean norm, by BFGS on finite differences."""
    fun = lambda w: _objective(loss, X, y, eps, None, w)
    res = minimize(fun, np.full(X.shape[1], 0.1), method="BFGS", options={"gtol": 1e-9, "maxiter": 5000})
    return res.x


def _assert_certified(loss, X, y, eps, norm, reference_w):
    model = _train(loss, X, y, eps, norm)
    assert model.value == _objective(loss, X, y, eps, norm, model.weights)
    assert model.gap == max(model.value - model.dual_value, 0.0)
    # both objective values carry a few ulps of rounding
    excess = model.value - _objective(loss, X, y, eps, norm, reference_w)
    assert excess <= model.gap + 8.0 * ULP * model.value
    assert model.gap <= TARGET * model.value
    return model


@pytest.mark.parametrize("seed", range(20))
def test_hinge_with_the_max_norm_against_highs(seed):
    rng = np.random.default_rng([seed, 3])
    loss, norm = UnivariateLoss("hinge"), NormSpec.p_norm(math.inf)
    X, y = _data(rng, "hinge", 200, 8)
    _assert_certified(loss, X, y, 0.05, norm, _lp_weights(loss, X, y, 0.05, math.inf))


@pytest.mark.parametrize("kind, delta", [("pinball", 0.3), ("eps_insensitive", 0.2)])
@pytest.mark.parametrize("input_p", [1.0, math.inf])
def test_piecewise_regression_against_highs(kind, delta, input_p):
    rng = np.random.default_rng([7, int(input_p == 1.0)])
    loss, norm = UnivariateLoss(kind, delta), NormSpec.p_norm(input_p)
    for _ in range(3):
        X, y = _data(rng, kind, 120, 5)
        eps = float(rng.uniform(0.05, 0.3))
        _assert_certified(loss, X, y, eps, norm, _lp_weights(loss, X, y, eps, input_p))


@pytest.mark.parametrize("kind, delta", [("smooth_hinge", None), ("logloss", None), ("huber", 1.0), ("squared", None)])
def test_smooth_losses_against_scipy(kind, delta):
    rng = np.random.default_rng([11, len(kind)])
    loss = UnivariateLoss(kind, delta)
    for _ in range(3):
        X, y = _data(rng, kind, 80, 4)
        eps = float(rng.uniform(0.05, 0.3))
        _assert_certified(loss, X, y, eps, None, _bfgs_weights(loss, X, y, eps))


def test_zero_radius():
    rng = np.random.default_rng(13)
    X, y = _data(rng, "squared", 60, 4)
    w_ols = np.linalg.lstsq(X, y, rcond=None)[0]
    _assert_certified(UnivariateLoss("squared"), X, y, 0.0, None, w_ols)
    for kind in ("logloss", "smooth_hinge", "huber"):
        loss = UnivariateLoss(kind, 1.0 if kind == "huber" else None)
        X, y = _data(rng, kind, 60, 4)
        _assert_certified(loss, X, y, 0.0, None, _bfgs_weights(loss, X, y, 0.0))
    loss = UnivariateLoss("hinge")
    X, y = _data(rng, "hinge", 60, 4)
    y[:10] = -y[:10]  # no separating direction, so the optimum is attained
    _assert_certified(loss, X, y, 0.0, NormSpec.p_norm(math.inf), _lp_weights(loss, X, y, 0.0, math.inf))


def test_a_thousand_samples_in_ten_dimensions_certify_quickly():
    rng = np.random.default_rng(17)
    loss, norm = UnivariateLoss("hinge"), NormSpec.p_norm(math.inf)
    X, y = _data(rng, "hinge", 1000, 10)
    start = time.perf_counter()
    model = dro_train_classifier(X, y, loss, 0.05, input_norm=norm)
    assert time.perf_counter() - start < 1.0
    assert model.gap <= 1e-6 * model.value


PIECEWISE = [("hinge", None), ("pinball", 0.3), ("eps_insensitive", 0.2)]


@pytest.mark.parametrize("kind, delta", PIECEWISE)
@pytest.mark.parametrize("input_p", [1.0, math.inf])
@pytest.mark.parametrize("N, d", [(50, 2), (50, 10), (300, 2), (300, 10)])
def test_piecewise_training_finishes_at_the_lp_vertex(kind, delta, input_p, N, d):
    # a 1- or inf-norm input ball makes the problem an LP, finished at its vertex
    loss, norm = UnivariateLoss(kind, delta), NormSpec.p_norm(input_p)
    for seed in range(3):
        rng = np.random.default_rng([seed, N, d, int(input_p == 1.0)])
        X, y = _data(rng, kind, N, d)
        eps = float(rng.uniform(0.05, 0.3))
        model = _assert_certified(loss, X, y, eps, norm, _lp_weights(loss, X, y, eps, input_p))
        assert model.finish == "active_pieces"
        assert 3 <= model.stages < 23


@pytest.mark.parametrize("kind, delta", PIECEWISE)
@pytest.mark.parametrize("input_p", [1.0, math.inf])
def test_the_vertex_finish_is_metamorphic(kind, delta, input_p):
    """Permuted rows, and inputs scaled by 2^30 or 2^-30, still finish at a
    certified vertex of the same problem.

    The radius scales with the inputs, and so do y and the kinks of the
    eps-insensitive loss, so each scaled problem is the original one with
    weights divided by s (hinge) or objective multiplied by s (regression).
    """
    rng = np.random.default_rng([19, int(input_p == 1.0), len(kind)])
    norm = NormSpec.p_norm(input_p)
    X, y = _data(rng, kind, 120, 5)
    eps = float(rng.uniform(0.05, 0.3))
    loss = UnivariateLoss(kind, delta)
    base = _assert_certified(loss, X, y, eps, norm, _lp_weights(loss, X, y, eps, input_p))
    assert base.finish == "active_pieces"
    order = rng.permutation(X.shape[0])
    model = _train(loss, X[order], y[order], eps, norm)
    assert model.finish == "active_pieces"
    assert model.gap <= TARGET * model.value
    assert abs(model.value - base.value) <= model.gap + base.gap + 8.0 * ULP * base.value
    for s in (2.0**30, 2.0**-30):
        if loss.is_classification:
            scaled, ys, factor = loss, y, 1.0
        else:
            scaled, ys, factor = UnivariateLoss(kind, delta * s if kind == "eps_insensitive" else delta), s * y, s
        model = _train(scaled, s * X, ys, s * eps, norm)
        assert model.finish == "active_pieces"
        assert model.gap <= TARGET * model.value
        assert model.value == _objective(scaled, s * X, ys, s * eps, norm, model.weights)
        value, gap = model.value / factor, model.gap / factor
        assert abs(value - base.value) <= gap + base.gap + 8.0 * ULP * base.value


@pytest.mark.parametrize("input_p", [1.0, math.inf])
def test_more_than_d_samples_on_kinks_fall_back_to_the_smoothing(input_p):
    """Degenerate data refuse the vertex, and the smoothing stages certify."""
    norm = NormSpec.p_norm(input_p)
    # integer data on which the best line y = 1 + x fits 8 of the 11 samples
    # exactly, 4 copies of each of two rows: with d = 2 the square system
    # picks two copies of one row and is singular
    x = np.array([0.0] * 4 + [1.0] * 4 + [-1.0, 2.0, 0.5])
    X = np.column_stack([np.ones(x.size), x])
    y = np.array([1.0] * 4 + [2.0] * 4 + [1.0, 1.0, 3.0])
    for loss in (UnivariateLoss("pinball", 0.5), UnivariateLoss("eps_insensitive", 0.0)):
        model = _assert_certified(loss, X, y, 0.05, norm, _lp_weights(loss, X, y, 0.05, input_p))
        assert model.finish == "smoothing"
        assert np.allclose(model.weights, [1.0, 1.0], rtol=0.0, atol=1e-6)
    # the median of 7 values, 5 of them equal: with d = 1 the square system
    # takes one of the 5 residuals on the kink and leaves the other four on
    # the slope -1/2, so the one it solves for needs a multiplier outside
    # [-1/2, 1/2] and the dual point falls far short
    X, y = np.ones((7, 1)), np.array([1.0] * 5 + [0.0, 2.0])
    loss = UnivariateLoss("pinball", 0.5)
    model = _assert_certified(loss, X, y, 0.05, norm, _lp_weights(loss, X, y, 0.05, input_p))
    assert model.finish == "smoothing"
    assert abs(model.weights[0] - 1.0) <= 1e-6
