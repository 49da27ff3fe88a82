"""Distributionally robust linear classification and regression.

With perturbations restricted to the input block (outputs are treated as
exact), worst-case training over a type-1 ball reduces to regularized
empirical risk minimization: the penalty is the Wasserstein radius times
the Lipschitz modulus of the univariate loss times the dual norm of the
weights.  For the squared loss over a type-2 ball the objective becomes
the square of (root mean squared error + eps * dual norm).

The same reduction runs backwards: at a fixed weight vector the trained
loss is piecewise affine in the perturbed input, so its worst-case risk
can be priced independently with the generic worst-case machinery.  The
crosscheck operation exercises that identity end to end.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._validation import as_samples, as_vector
from .convex_analysis import NormSpec, norm_eval, norm_subgradient
from .empirical_risk import BallSpec, PiecewiseAffineLoss, wc_risk_pwa
from .transport import DiscreteDistribution
from .errors import DimensionMismatch, PairingMismatch, UnsupportedLoss
from .numerics import DEFAULT_TOL, Tolerance, subgradient_minimize

__all__ = [
    "UnivariateLoss",
    "TrainedModel",
    "classification_objective",
    "regression_objective",
    "dro_train_classifier",
    "dro_train_regressor",
    "dro_objective_crosscheck",
    "RobustLinearClassifier",
    "RobustLinearRegressor",
]

_CLASSIFICATION = ("hinge", "smooth_hinge", "logloss")
_REGRESSION = ("squared", "huber", "eps_insensitive", "pinball")
_PIECEWISE = ("hinge", "eps_insensitive", "pinball")
_NORM_CAP = 1e6


class UnivariateLoss:
    """Scalar loss L(z) with value, subgradient, and Lipschitz bookkeeping.

    Classification kinds (applied to the margin y * w'x): hinge,
    smooth_hinge, logloss.  Regression kinds (applied to the residual
    w'x - y): squared, huber(delta > 0), eps_insensitive(delta >= 0),
    pinball(delta in [0, 1]).

    value and subgrad take a float or an array of arguments.  The piecewise
    affine kinds (hinge, eps_insensitive, pinball) are read off pieces():
    the value is the largest piece, and the subgradient is the slope of the
    first piece attaining it, so at a kink the lowest-indexed active piece
    decides.
    """

    def __init__(self, kind: str, delta: float | None = None):
        if kind not in _CLASSIFICATION + _REGRESSION:
            raise ValueError(f"unknown loss kind {kind!r}")
        if kind == "huber":
            if delta is None or not delta > 0:
                raise ValueError("huber needs delta > 0")
        elif kind == "eps_insensitive":
            if delta is None or delta < 0:
                raise ValueError("eps_insensitive needs delta >= 0")
        elif kind == "pinball":
            if delta is None or not 0.0 <= delta <= 1.0:
                raise ValueError("pinball needs delta in [0, 1]")
        elif delta is not None:
            raise ValueError(f"{kind} takes no parameter")
        self.kind = kind
        self.delta = None if delta is None else float(delta)
        self._table = np.array(self.pieces()) if kind in _PIECEWISE else None

    @property
    def is_classification(self) -> bool:
        return self.kind in _CLASSIFICATION

    @property
    def attains_infimum(self) -> bool:
        """Whether L attains its infimum 0 at a finite argument.

        Only the logistic loss approaches 0 without reaching it; every
        other kind is exactly 0 somewhere.
        """
        return self.kind != "logloss"

    @property
    def lipschitz(self) -> float:
        if self.kind in ("hinge", "smooth_hinge", "logloss", "eps_insensitive"):
            return 1.0
        if self.kind == "huber":
            return self.delta
        if self.kind == "pinball":
            return max(self.delta, 1.0 - self.delta)
        raise UnsupportedLoss("the squared loss has no global Lipschitz modulus")

    def value(self, z) -> float | np.ndarray:
        """L(z) for a float, or elementwise for an array of arguments."""
        z = np.asarray(z, dtype=float)
        if self.kind in _PIECEWISE:
            v = self._pieces_at(z)[1].max(axis=0)
        elif self.kind == "smooth_hinge":
            v = np.where(z <= 0.0, 0.5 - z, 0.5 * np.clip(1.0 - z, 0.0, None) ** 2)
        elif self.kind == "logloss":
            # exp(-z) rounds to zero for large margins; the branch not taken
            # is evaluated at a clipped argument so it cannot overflow
            with np.errstate(under="ignore"):
                v = np.where(z < -35.0, -z, np.log1p(np.exp(-np.maximum(z, -35.0))))
        elif self.kind == "squared":
            v = z * z
        else:
            a = np.abs(z)
            v = np.where(a <= self.delta, 0.5 * z * z, self.delta * (a - 0.5 * self.delta))
        return float(v) if v.ndim == 0 else v

    def subgrad(self, z) -> float | np.ndarray:
        """A subgradient of L at z, elementwise like value."""
        z = np.asarray(z, dtype=float)
        if self.kind in _PIECEWISE:
            slopes, table = self._pieces_at(z)
            g = slopes[table.argmax(axis=0)]
        elif self.kind == "smooth_hinge":
            g = np.clip(z - 1.0, -1.0, 0.0)
        elif self.kind == "logloss":
            with np.errstate(under="ignore"):
                g = np.where(
                    z > 35.0,
                    -np.exp(-np.maximum(z, 35.0)),
                    -1.0 / (1.0 + np.exp(np.minimum(z, 35.0))),
                )
        elif self.kind == "squared":
            g = 2.0 * z
        else:
            g = np.clip(z, -self.delta, self.delta)
        return float(g) if g.ndim == 0 else g

    def pieces(self) -> list:
        """Slope/intercept pairs with L(z) = max_j (slope_j z + intercept_j)."""
        if self.kind == "hinge":
            return [(0.0, 0.0), (-1.0, 1.0)]
        if self.kind == "eps_insensitive":
            return [(0.0, 0.0), (1.0, -self.delta), (-1.0, -self.delta)]
        if self.kind == "pinball":
            return [(-self.delta, 0.0), (1.0 - self.delta, 0.0)]
        raise UnsupportedLoss(f"{self.kind} is not piecewise affine")

    def _pieces_at(self, z: np.ndarray):
        """The piece slopes, and the piece values at z stacked on a new first axis."""
        slopes, intercepts = self._table.T
        return slopes, np.multiply.outer(slopes, z) + intercepts.reshape((-1,) + (1,) * z.ndim)


@dataclasses.dataclass(frozen=True, eq=False)
class TrainedModel:
    """Weights plus solver diagnostics for a robust training run."""

    weights: np.ndarray
    value: float
    iterations: int
    gap: float
    unattained: bool = False
    degenerate_data: bool = False


def _dual(input_norm: NormSpec | None) -> NormSpec:
    return (input_norm or NormSpec.p_norm(2.0)).dual_spec()


def _check_kind(loss: UnivariateLoss, classification: bool) -> None:
    if loss.is_classification != classification:
        task = "classification" if classification else "regression"
        raise UnsupportedLoss(f"{loss.kind} is not a {task} loss")


def _check_labeled(X, y, classification: bool):
    X = as_samples(X, "X")
    y = as_vector(y, "y")
    if X.shape[0] != y.size:
        raise DimensionMismatch("X and y must have the same number of rows")
    if X.shape[0] == 0:
        raise ValueError("need at least one sample")
    if classification and not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("classification labels must be -1 or +1")
    return X, y


def _objective(X: np.ndarray, y: np.ndarray, loss: UnivariateLoss, eps: float, dual: NormSpec):
    """The regularized training objective and a subgradient map, as (fun, grad).

    Classification kinds average L over the margins y * Xw, regression kinds
    over the residuals Xw - y, plus eps * Lip(L) * ||w||_*.  The squared
    loss instead gives (root mean squared residual + eps * ||w||_*)^2.
    """
    n = X.shape[0]
    if loss.kind == "squared":

        def fun(w):
            r = X @ w - y
            return float((math.sqrt(np.mean(r**2)) + eps * norm_eval(dual, w)) ** 2)

        def grad(w):
            r = X @ w - y
            rmse = math.sqrt(np.mean(r**2))
            reg = eps * norm_eval(dual, w)
            d_rmse = X.T @ r / (n * rmse) if rmse > 0 else np.zeros_like(w)
            return 2.0 * (rmse + reg) * (d_rmse + eps * norm_subgradient(dual, w))

        return fun, grad

    penalty = eps * loss.lipschitz

    def args(w):
        return y * (X @ w) if loss.is_classification else X @ w - y

    def fun(w):
        return float(loss.value(args(w)).sum() / n + penalty * norm_eval(dual, w))

    def grad(w):
        slopes = loss.subgrad(args(w))
        if loss.is_classification:
            slopes = slopes * y
        return slopes @ X / n + penalty * norm_subgradient(dual, w)

    return fun, grad


def classification_objective(
    weights, X, y, loss: UnivariateLoss, eps: float, input_norm: NormSpec | None = None
) -> float:
    """Average margin loss plus eps times the dual norm of the weights."""
    _check_kind(loss, classification=True)
    w = as_vector(weights, "weights")
    X, y = _check_labeled(X, y, classification=True)
    return _objective(X, y, loss, eps, _dual(input_norm))[0](w)


def regression_objective(
    weights,
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    p: float,
    input_norm: NormSpec | None = None,
) -> float:
    """Regularized residual loss; the squared kind composes the square."""
    _check_kind(loss, classification=False)
    w = as_vector(weights, "weights")
    X, y = _check_labeled(X, y, classification=False)
    return _objective(X, y, loss, eps, _dual(input_norm))[0](w)


def _ray_probe(fun, w: np.ndarray, value: float):
    """Chase improvement along the ray t*w; flag unattained at the norm cap."""
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return w, value, False
    best_w, best_val = w, value
    scale = 2.0
    while scale * norm <= _NORM_CAP:
        cand = scale * w
        val = fun(cand)
        if val >= best_val - 1e-12:
            return best_w, best_val, False
        best_w, best_val = cand, val
        scale *= 2.0
    return best_w, best_val, True


def dro_train_classifier(
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    input_norm: NormSpec | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TrainedModel:
    """Train a linear scorer against input perturbations within radius eps."""
    _check_kind(loss, classification=True)
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    X, y = _check_labeled(X, y, classification=True)
    degenerate = bool(np.unique(y).size == 1)
    fun, grad = _objective(X, y, loss, eps, _dual(input_norm))
    res = subgradient_minimize(fun, grad, np.zeros(X.shape[1]), tol=tol)
    w, value, unattained = _ray_probe(fun, res.x, res.value)
    # a strictly positive loss evaluating to numerical zero can only mean
    # the infimum is approached along a ray, never reached
    if value <= 1e-280 and not loss.attains_infimum and np.linalg.norm(w) > 0:
        unattained = True
    return TrainedModel(
        weights=w,
        value=value,
        iterations=res.iterations,
        gap=res.gap_estimate,
        unattained=unattained,
        degenerate_data=degenerate,
    )


def dro_train_regressor(
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    p: float,
    input_norm: NormSpec | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TrainedModel:
    """Train a linear regressor against input perturbations within radius eps.

    The ball order must match the loss: squared requires p = 2, the
    Lipschitz kinds require p = 1.
    """
    _check_kind(loss, classification=False)
    if loss.kind == "squared":
        if p != 2:
            raise PairingMismatch("the squared loss needs a type-2 ball")
    elif p != 1:
        raise PairingMismatch("Lipschitz losses need a type-1 ball")
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    X, y = _check_labeled(X, y, classification=False)
    fun, grad = _objective(X, y, loss, eps, _dual(input_norm))
    res = subgradient_minimize(fun, grad, np.zeros(X.shape[1]), tol=tol)
    w, value, unattained = _ray_probe(fun, res.x, res.value)
    return TrainedModel(
        weights=w,
        value=value,
        iterations=res.iterations,
        gap=res.gap_estimate,
        unattained=unattained,
    )


def dro_objective_crosscheck(
    model: TrainedModel,
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    input_norm: NormSpec | None = None,
    tol: Tolerance = DEFAULT_TOL,
):
    """Replay a trained objective through the generic worst-case machinery.

    At fixed weights the trained loss is piecewise affine in the perturbed
    input, so the regularized objective must coincide with a worst-case
    risk over a type-1 whole-space ball.  Classification folds the label
    into the atom (y * x); regression shifts each atom along w so a single
    piecewise description covers all samples.  Returns (regularized value,
    worst-case value, difference).
    """
    pieces = loss.pieces()  # raises UnsupportedLoss for smooth kinds
    w = as_vector(model.weights, "weights")
    norm = input_norm or NormSpec.p_norm(2.0)
    ball = BallSpec(eps, 1.0, norm=norm)
    if loss.is_classification:
        X, y = _check_labeled(X, y, classification=True)
        regularized = classification_objective(w, X, y, loss, eps, input_norm)
        atoms = y[:, None] * X
    else:
        X, y = _check_labeled(X, y, classification=False)
        regularized = regression_objective(w, X, y, loss, eps, 1.0, input_norm)
        wn = float(w @ w)
        if wn <= 1e-24:
            nominal = float(np.mean(loss.value(-y)))
            return regularized, nominal, regularized - nominal
        atoms = X - np.outer(y, w) / wn
    slopes, intercepts = np.array(pieces).T
    pwa = PiecewiseAffineLoss(zip(np.outer(slopes, w), intercepts))
    wc = wc_risk_pwa(pwa, DiscreteDistribution(atoms), ball, tol=tol)
    return regularized, wc, regularized - wc


class RobustLinearClassifier:
    """Estimator-style wrapper around dro_train_classifier."""

    def __init__(self, eps: float = 0.1, loss: str = "hinge", delta: float | None = None):
        self.eps = eps
        self.loss = loss
        self.delta = delta

    def get_params(self, deep: bool = True) -> dict:
        return {"eps": self.eps, "loss": self.loss, "delta": self.delta}

    def set_params(self, **params) -> "RobustLinearClassifier":
        for key, value in params.items():
            if key not in ("eps", "loss", "delta"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y) -> "RobustLinearClassifier":
        model = dro_train_classifier(X, y, UnivariateLoss(self.loss, self.delta), self.eps)
        self.coef_ = model.weights
        self.objective_ = model.value
        self.model_ = model
        return self

    def decision_function(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, 1.0, -1.0)


class RobustLinearRegressor:
    """Estimator-style wrapper around dro_train_regressor."""

    def __init__(self, eps: float = 0.1, loss: str = "squared", delta: float | None = None):
        self.eps = eps
        self.loss = loss
        self.delta = delta

    def get_params(self, deep: bool = True) -> dict:
        return {"eps": self.eps, "loss": self.loss, "delta": self.delta}

    def set_params(self, **params) -> "RobustLinearRegressor":
        for key, value in params.items():
            if key not in ("eps", "loss", "delta"):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y) -> "RobustLinearRegressor":
        loss = UnivariateLoss(self.loss, self.delta)
        p = 2.0 if self.loss == "squared" else 1.0
        model = dro_train_regressor(X, y, loss, self.eps, p)
        self.coef_ = model.weights
        self.objective_ = model.value
        self.model_ = model
        return self

    def predict(self, X) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.coef_
