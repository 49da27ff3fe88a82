"""Tests for robust linear classification and regression."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from wdro.convex_analysis import NormSpec
from wdro.errors import PairingMismatch, UnsupportedLoss
from wdro.learn import (
    RobustLinearClassifier,
    RobustLinearRegressor,
    TrainedModel,
    UnivariateLoss,
    classification_objective,
    dro_objective_crosscheck,
    dro_train_classifier,
    dro_train_regressor,
    regression_objective,
)


def grid_minimize_1d(fun, lo=-20.0, hi=20.0, n=400001):
    """Dense-grid oracle for one-dimensional convex objectives."""
    ws = np.linspace(lo, hi, n)
    vals = np.array([fun(w) for w in ws])
    k = int(np.argmin(vals))
    return float(ws[k]), float(vals[k])


# frozen targets from breakpoint enumeration (all objectives are piecewise
# linear in w with breakpoints at margins/residual kinks):
# hinge, one sample (x=1, y=1): f(w) = max(0, 1-w) + eps*|w|
#   eps = 0.5: slope -0.5 on (0,1), +0.5 beyond -> w* = 1, f = 0.5
#   eps = 2.0: slope +1 on (0,1)  -> w* = 0, f = 1
HINGE_SMALL = {"0.5": (1.0, 0.5), "2.0": (0.0, 1.0)}
# pinball delta=0.5, one sample (x=1, y=1), eps=0.1:
#   f(w) = 0.5*|w-1| + 0.05*|w| -> w* = 1, f = 0.05
PINBALL_SMALL = (1.0, 0.05)
# huber delta=1, samples {(1, 1), (1, -1)}, eps=0: symmetric -> w* = 0,
#   f = (huber(1) + huber(-1)) / 2 = 0.5
HUBER_SMALL = (0.0, 0.5)


def test_loss_table_values_and_subgradients():
    table = [
        (UnivariateLoss("hinge"), [(0.0, 1.0), (2.0, 0.0), (-1.0, 2.0)]),
        (UnivariateLoss("smooth_hinge"), [(-1.0, 1.5), (0.5, 0.125), (2.0, 0.0)]),
        (UnivariateLoss("logloss"), [(0.0, math.log(2.0))]),
        (UnivariateLoss("squared"), [(3.0, 9.0), (-2.0, 4.0)]),
        (UnivariateLoss("huber", 1.0), [(0.5, 0.125), (3.0, 2.5), (-3.0, 2.5)]),
        (UnivariateLoss("eps_insensitive", 0.5), [(1.0, 0.5), (0.2, 0.0), (-2.0, 1.5)]),
        (UnivariateLoss("pinball", 0.3), [(-2.0, 0.6), (1.0, 0.7), (0.0, 0.0)]),
    ]
    for loss, cases in table:
        for z, expected in cases:
            assert abs(loss.value(z) - expected) < 1e-12
    # subgradients lie under the function (convexity) and match central
    # differences at generic smooth points
    rng = np.random.RandomState(1)
    for loss, _ in table:
        for _ in range(40):
            z = float(rng.uniform(-3.0, 3.0))
            g = loss.subgrad(z)
            for dz in (-0.7, 0.3, 1.1):
                assert loss.value(z + dz) >= loss.value(z) + g * dz - 1e-10
        if loss.kind != "squared":
            lip = loss.lipschitz
            for _ in range(40):
                z1, z2 = rng.uniform(-4.0, 4.0, size=2)
                assert abs(loss.value(z1) - loss.value(z2)) <= lip * abs(z1 - z2) + 1e-12
    # the same points passed as one array give the scalar answers elementwise
    for loss, cases in table:
        kinks = [-1.0, 0.0, 0.5, 1.0]
        zs = np.concatenate([[z for z, _ in cases], rng.uniform(-3.0, 3.0, 40), kinks])
        assert np.allclose(loss.value(zs), [loss.value(z) for z in zs], rtol=1e-14, atol=0.0)
        assert np.allclose(loss.subgrad(zs), [loss.subgrad(z) for z in zs], rtol=1e-14, atol=0.0)
        grid = np.stack([zs, -zs])
        assert np.array_equal(loss.value(grid), [loss.value(zs), loss.value(-zs)])
        assert np.array_equal(loss.subgrad(grid), [loss.subgrad(zs), loss.subgrad(-zs)])
    # at a kink the first maximal piece decides: pinball's slope at 0 is -delta
    assert UnivariateLoss("pinball", 0.3).subgrad(0.0) == -0.3


def test_logloss_far_margins_raise_no_floating_point_warning():
    loss = UnivariateLoss("logloss")
    z = np.array([-1e3, -36.0, 0.0, 36.0, 1e3])
    with np.errstate(all="raise"):
        values, slopes = loss.value(z), loss.subgrad(z)
        scalars = [(loss.value(zi), loss.subgrad(zi)) for zi in z]
    assert values[0] == 1e3 and values[-1] == 0.0
    assert slopes[0] == -1.0 and slopes[-1] == 0.0
    assert np.allclose(np.column_stack([values, slopes]), scalars, rtol=1e-14, atol=0.0)


def test_loss_parameter_validation():
    with pytest.raises(ValueError):
        UnivariateLoss("huber")
    with pytest.raises(ValueError):
        UnivariateLoss("pinball", 1.5)
    with pytest.raises(ValueError):
        UnivariateLoss("hinge", 0.5)
    with pytest.raises(ValueError):
        UnivariateLoss("absolute")
    with pytest.raises(UnsupportedLoss):
        UnivariateLoss("squared").lipschitz
    with pytest.raises(UnsupportedLoss):
        UnivariateLoss("logloss").pieces()


def test_a_loss_name_is_refused_with_the_loss_to_build():
    X, y, w = [[1.0], [-1.0]], [1.0, -1.0], [0.5]
    model = dro_train_classifier(X, y, UnivariateLoss("hinge"), 0.1)
    calls = (
        lambda: dro_train_classifier(X, y, "hinge", 0.1),
        lambda: dro_train_regressor(X, y, "hinge", 0.1, 1.0),
        lambda: classification_objective(w, X, y, "hinge", 0.1),
        lambda: regression_objective(w, X, y, "hinge", 0.1, 1.0),
        lambda: dro_objective_crosscheck(model, X, y, "hinge", 0.1),
    )
    for call in calls:
        with pytest.raises(UnsupportedLoss, match=re.escape('UnivariateLoss("hinge")')):
            call()
    with pytest.raises(UnsupportedLoss, match="not NoneType"):
        dro_train_classifier(X, y, None, 0.1)


def test_classifier_single_sample_examples():
    X, y = [[1.0]], [1.0]
    loss = UnivariateLoss("hinge")
    for eps_key, (w_ref, f_ref) in HINGE_SMALL.items():
        eps = float(eps_key)
        oracle_w, oracle_f = grid_minimize_1d(
            lambda w: max(0.0, 1.0 - w) + eps * abs(w)
        )
        assert abs(oracle_f - f_ref) < 1e-8
        model = dro_train_classifier(X, y, loss, eps)
        assert abs(model.value - f_ref) < 1e-8
        assert abs(model.weights[0] - w_ref) < 1e-6
        assert not model.unattained
        assert model.degenerate_data  # single label class, reported not fatal


def test_regressor_pinball_example():
    model = dro_train_regressor([[1.0]], [1.0], UnivariateLoss("pinball", 0.5), 0.1, p=1)
    w_ref, f_ref = PINBALL_SMALL
    assert abs(model.value - f_ref) < 1e-8
    assert abs(model.weights[0] - w_ref) < 1e-6


def test_regressor_huber_symmetric_example():
    model = dro_train_regressor(
        [[1.0], [1.0]], [1.0, -1.0], UnivariateLoss("huber", 1.0), 0.0, p=1
    )
    w_ref, f_ref = HUBER_SMALL
    assert abs(model.value - f_ref) < 1e-8
    assert abs(model.weights[0] - w_ref) < 1e-6


def test_zero_radius_squared_recovers_least_squares():
    rng = np.random.RandomState(3)
    X = rng.randn(20, 3)
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.randn(20)
    model = dro_train_regressor(X, y, UnivariateLoss("squared"), 0.0, p=2)
    w_ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    f_ols = float(np.mean((X @ w_ols - y) ** 2))
    assert model.value <= f_ols + 1e-8
    assert np.max(np.abs(model.weights - w_ols)) < 1e-4


def test_zero_radius_classifier_is_erm():
    rng = np.random.RandomState(5)
    for _ in range(5):
        X = rng.randn(6, 1)
        y = np.sign(rng.randn(6))
        y[y == 0] = 1.0
        loss = UnivariateLoss("smooth_hinge")
        model = dro_train_classifier(X, y, loss, 0.0)

        def erm(w):
            return float(np.mean([loss.value(z) for z in y * (X[:, 0] * w)]))

        ref = minimize_scalar(erm, bounds=(-50.0, 50.0), method="bounded").fun
        assert model.value <= ref + 1e-7


def test_crosscheck_small_examples():
    X, y = [[1.0]], [1.0]
    model = dro_train_classifier(X, y, UnivariateLoss("hinge"), 0.5)
    reg, wc, diff = dro_objective_crosscheck(model, X, y, UnivariateLoss("hinge"), 0.5)
    assert abs(diff) <= 1e-9
    assert abs(reg - model.value) <= 1e-9

    loss = UnivariateLoss("pinball", 0.5)
    model = dro_train_regressor([[1.0]], [1.0], loss, 0.1, p=1)
    reg, wc, diff = dro_objective_crosscheck(model, [[1.0]], [1.0], loss, 0.1)
    assert abs(diff) <= 1e-9


def test_crosscheck_random_hinge_instances():
    rng = np.random.RandomState(7)
    for norm in (None, NormSpec.p_norm(1.0), NormSpec.p_norm(np.inf)):
        for _ in range(4):
            X = rng.randn(5, 3)
            y = np.where(rng.rand(5) < 0.5, -1.0, 1.0)
            eps = float(rng.uniform(0.05, 0.8))
            model = dro_train_classifier(X, y, UnivariateLoss("hinge"), eps, norm)
            reg, wc, diff = dro_objective_crosscheck(
                model, X, y, UnivariateLoss("hinge"), eps, norm
            )
            assert abs(diff) <= 1e-6


def test_crosscheck_random_regression_instances():
    rng = np.random.RandomState(9)
    for kind, delta in (("pinball", 0.3), ("eps_insensitive", 0.2)):
        loss = UnivariateLoss(kind, delta)
        for _ in range(4):
            X = rng.randn(5, 2)
            y = rng.randn(5)
            eps = float(rng.uniform(0.05, 0.5))
            model = dro_train_regressor(X, y, loss, eps, p=1)
            reg, wc, diff = dro_objective_crosscheck(model, X, y, loss, eps)
            assert abs(diff) <= 1e-6


def test_crosscheck_rejects_smooth_losses():
    model = TrainedModel(np.array([1.0]), 0.0, 0, 0.0)
    with pytest.raises(UnsupportedLoss):
        dro_objective_crosscheck(model, [[1.0]], [1.0], UnivariateLoss("logloss"), 0.1)
    with pytest.raises(UnsupportedLoss):
        dro_objective_crosscheck(model, [[1.0]], [1.0], UnivariateLoss("squared"), 0.1)


def test_radius_monotonicity():
    rng = np.random.RandomState(11)
    X = rng.randn(12, 2)
    y = np.where(X[:, 0] + 0.3 * rng.randn(12) > 0, 1.0, -1.0)
    values, norms = [], []
    for eps in (0.0, 0.1, 0.3, 0.8, 2.0):
        model = dro_train_classifier(X, y, UnivariateLoss("hinge"), eps)
        values.append(model.value)
        norms.append(float(np.linalg.norm(model.weights)))
    assert all(b >= a - 1e-8 for a, b in zip(values, values[1:]))
    assert all(b <= a + 1e-8 for a, b in zip(norms, norms[1:]))


def test_objective_convexity_certificate():
    rng = np.random.RandomState(13)
    X = rng.randn(8, 3)
    y = np.where(rng.rand(8) < 0.5, -1.0, 1.0)
    loss = UnivariateLoss("hinge")
    for _ in range(10):
        w1, w2 = rng.randn(3), rng.randn(3)
        f1 = classification_objective(w1, X, y, loss, 0.3)
        f2 = classification_objective(w2, X, y, loss, 0.3)
        mid = classification_objective(0.5 * (w1 + w2), X, y, loss, 0.3)
        assert mid <= 0.5 * (f1 + f2) + 1e-10
    yr = rng.randn(8)
    sq = UnivariateLoss("squared")
    for _ in range(10):
        w1, w2 = rng.randn(3), rng.randn(3)
        f1 = regression_objective(w1, X, yr, sq, 0.3, 2.0)
        f2 = regression_objective(w2, X, yr, sq, 0.3, 2.0)
        mid = regression_objective(0.5 * (w1 + w2), X, yr, sq, 0.3, 2.0)
        assert mid <= 0.5 * (f1 + f2) + 1e-10


def test_value_reproducible_from_weights():
    # the reported value is the public objective at the returned weights,
    # to the last bit, for every loss kind
    rng = np.random.RandomState(15)
    X = rng.randn(10, 2)
    labels = np.where(rng.rand(10) < 0.5, -1.0, 1.0)
    targets = X @ np.array([1.0, -0.5]) + 0.3 * rng.randn(10)
    kinds = [("hinge", None), ("smooth_hinge", None), ("logloss", None), ("squared", None),
             ("huber", 0.5), ("eps_insensitive", 0.2), ("pinball", 0.3)]
    for (kind, delta), norm in itertools.product(kinds, (None, NormSpec.p_norm(1.0))):
        loss = UnivariateLoss(kind, delta)
        if loss.is_classification:
            model = dro_train_classifier(X, labels, loss, 0.2, input_norm=norm)
            again = classification_objective(model.weights, X, labels, loss, 0.2, norm)
        else:
            p = 2.0 if kind == "squared" else 1.0
            model = dro_train_regressor(X, targets, loss, 0.2, p, input_norm=norm)
            again = regression_objective(model.weights, X, targets, loss, 0.2, p, norm)
        assert again == model.value, (kind, norm)
        assert model.target_met, (kind, norm)


def test_pairing_mismatch():
    with pytest.raises(PairingMismatch):
        dro_train_regressor([[1.0]], [1.0], UnivariateLoss("squared"), 0.1, p=1)
    with pytest.raises(PairingMismatch):
        dro_train_regressor([[1.0]], [1.0], UnivariateLoss("pinball", 0.5), 0.1, p=2)
    with pytest.raises(UnsupportedLoss):
        dro_train_regressor([[1.0]], [1.0], UnivariateLoss("hinge"), 0.1, p=1)
    with pytest.raises(UnsupportedLoss):
        dro_train_classifier([[1.0]], [1.0], UnivariateLoss("squared"), 0.1)


def test_regression_objective_checks_the_ball_order():
    X, y = [[1.0], [2.0]], [1.0, 3.0]
    assert regression_objective([1.0], X, y, UnivariateLoss("squared"), 0.1, 2.0) > 0.0
    assert regression_objective([1.0], X, y, UnivariateLoss("huber", 1.0), 0.1, 1.0) > 0.0
    with pytest.raises(PairingMismatch):
        regression_objective([1.0], X, y, UnivariateLoss("squared"), 0.1, 1.0)
    with pytest.raises(PairingMismatch):
        regression_objective([1.0], X, y, UnivariateLoss("huber", 1.0), 0.1, 2.0)


def test_target_met_says_whether_the_gap_target_was_reached():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3))
    y = X @ rng.normal(size=3) + 0.3 * rng.normal(size=50)
    met = dro_train_regressor(X, y, UnivariateLoss("squared"), 0.1, 2.0)
    assert met.target_met is True
    assert met.gap <= 1e-9 * met.value
    # at a relative radius of 1e-5 the rounding of X'r keeps the gap of the
    # squared loss above the target; it stays a bound, and says so
    missed = dro_train_regressor(X, y, UnivariateLoss("squared"), 1e-5, 2.0)
    assert missed.target_met is False
    assert missed.gap > 1e-9 * missed.value
    assert TrainedModel(np.array([1.0]), 0.0, 0, 0.0).target_met is False


def test_separable_logloss_flags_unattained():
    X = np.array([[1.0], [-1.0]])
    y = np.array([1.0, -1.0])
    model = dro_train_classifier(X, y, UnivariateLoss("logloss"), 0.0)
    assert model.unattained
    assert model.value < 1e-4
    assert np.linalg.norm(model.weights) <= 2e6


def _separated(case):
    if case == "pair":
        return np.array([[1.0], [-1.0]]), np.array([1.0, -1.0])
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 5))
    return X, np.where(X @ rng.normal(size=5) >= 0.0, 1.0, -1.0)


@pytest.mark.parametrize("case", ["pair", "seeded_200x5"])
def test_completely_separated_logloss_stops_after_one_stage(case):
    X, y = _separated(case)
    model = dro_train_classifier(X, y, UnivariateLoss("logloss"), 0.0)
    assert model.unattained
    assert model.iterations <= 60
    assert np.all(y * (X @ model.weights) > 0.0)
    assert model.value <= 1e-12 * math.log(2.0)
    assert model.value == classification_objective(model.weights, X, y, UnivariateLoss("logloss"), 0.0)
    # alpha = 0 is the dual point; the gap is the whole value, above the target
    assert model.dual_value == 0.0
    assert model.gap == model.value
    assert model.target_met is False


def test_quasi_separated_logloss_is_not_flagged():
    # the first sample is separated, the other two lie on every hyperplane
    # through 0: the infimum 2/3 log 2 is unattained but not detected, and
    # the gap still certifies the value
    X, y = np.array([[1.0], [0.0], [0.0]]), np.array([1.0, 1.0, -1.0])
    model = dro_train_classifier(X, y, UnivariateLoss("logloss"), 0.0)
    assert not model.unattained
    assert abs(model.value - 2.0 / 3.0 * math.log(2.0)) <= 1e-9
    assert model.gap <= 1e-9 * model.value


def test_wrappers():
    rng = np.random.RandomState(17)
    X = rng.randn(60, 2)
    y = np.where(X @ np.array([1.0, -1.0]) + 0.2 * rng.randn(60) > 0, 1.0, -1.0)
    clf = RobustLinearClassifier(eps=0.05).fit(X, y)
    acc = float(np.mean(clf.predict(X) == y))
    assert acc > 0.8
    assert clf.get_params()["loss"] == "hinge"
    clf.set_params(eps=0.2)
    assert clf.eps == 0.2
    with pytest.raises(ValueError):
        clf.set_params(nope=1)
    # an unknown key sets nothing, not even the keys before it
    with pytest.raises(ValueError):
        clf.set_params(eps=0.5, loss="logloss", nope=1)
    assert clf.get_params() == {"eps": 0.2, "loss": "hinge", "delta": None}

    yr = X @ np.array([0.5, 2.0]) + 0.05 * rng.randn(60)
    reg = RobustLinearRegressor(eps=0.01).fit(X, yr)
    pred = reg.predict(X)
    assert float(np.mean((pred - yr) ** 2)) < 0.1
    assert reg.get_params()["eps"] == 0.01
    with pytest.raises(ValueError):
        reg.set_params(delta=0.5, nope=1)
    assert reg.get_params() == {"eps": 0.01, "loss": "squared", "delta": None}


def test_label_validation():
    with pytest.raises(ValueError):
        dro_train_classifier([[1.0], [2.0]], [1.0, 0.5], UnivariateLoss("hinge"), 0.1)
