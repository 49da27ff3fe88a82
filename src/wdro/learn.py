"""Distributionally robust linear classification and regression.

With perturbations restricted to the input block (outputs are treated as
exact), worst-case training over a type-1 ball reduces to regularized
empirical risk minimization: the penalty is the Wasserstein radius times
the Lipschitz modulus of the univariate loss times the dual norm of the
weights.  For the squared loss over a type-2 ball the objective becomes
the square of (root mean squared error + eps * dual norm).

Training certifies its own accuracy through the Fenchel dual of the
regularized problem (Shafieezadeh-Abadeh, Kuhn and Mohajerin Esfahani,
*Regularization via mass transportation*, JMLR 2019).  With z_i = a_i'w + c_i
the margins (a_i = y_i x_i, c_i = 0) or residuals (a_i = x_i, c_i = -y_i),

    min_w (1/N) sum_i L(z_i) + lam ||w||_*
      >=  max_alpha (1/N) sum_i (alpha_i c_i - L*(alpha_i))
          subject to ||(1/N) sum_i alpha_i a_i|| <= lam,

with lam = eps * Lip(L) and the conjugate L* of the univariate loss.  The
squared loss over a type-2 ball is the square of the square-root lasso
||Xw - y|| / sqrt(N) + eps ||w||_*, whose dual maximizes -beta'y / sqrt(N)
over ||beta||_2 <= 1 and ||X'beta|| / sqrt(N) <= eps.  The solver takes
trust-region Newton steps in the weights on a smoothed objective (Nesterov,
*Smooth minimization of non-smooth functions*, Math. Prog. 2005: the
piecewise-affine losses are replaced by their Moreau envelopes and the dual
norm by a smooth upper approximation), shrinks the smoothing fivefold per
stage, and after each stage builds a dual point from the smoothed loss
derivatives at the current margins, scaled into the constraint (for
eps = 0, moved onto A'alpha = 0).  It stops once primal - dual is at most
10 * tol.rel_tol of the objective (1e-9 relative at the default
tolerance); primal - dual bounds the suboptimality of the returned
weights either way.

Hinge, pinball and eps-insensitive training under a 1- or inf-norm input
ball is a linear program (the dual norm is the inf- or 1-norm), whose
optimum is a vertex fixed by d active kinks; smoothing identifies them
long before mu is small (Hare and Lewis, *Identifying active constraints
via partial smoothness and prox-regularity*, J. Convex Anal. 2004).  From
the third stage on, training solves the square system of the d kinks
nearest to active for that vertex, and its transpose for the kink
multipliers; the vertex is kept only if the gap to the dual point built
from those multipliers meets the same target, so the certificate still
does not depend on how the weights were found.  Degenerate data, with
more than d samples on kinks, make the square system singular or its
multipliers infeasible, and the stages go on.

Unpenalized logloss has no minimizer on completely separated data:
training stops at the first stage whose weights separate every sample and
flags them ``unattained``.  Quasi-separated data, where some margins stay
at 0, are not detected.

Each objective is defined once, by the problem object that ``_problem``
builds from the checked data: ``_Risk`` for the Lipschitz losses and
``_SqrtLasso`` for the squared loss.  Its ``primal`` is what the public
objectives return, what training reports as ``value`` and what the
crosscheck replays; the same object gives the Newton steps and the dual,
so the gap always compares an objective with its own dual.

The same reduction runs backwards: at a fixed weight vector the trained
loss is piecewise affine in the perturbed input, so its worst-case risk
can be priced independently with the generic worst-case machinery.  The
crosscheck operation exercises that identity end to end.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._validation import ParamsMixin, as_samples, as_vector, radius
from .convex_analysis import NormSpec, norm_eval
from .empirical_risk import BallSpec, PiecewiseAffineLoss, wc_risk_pwa
from .transport import DiscreteDistribution
from .errors import DimensionMismatch, PairingMismatch, UnsupportedLoss
from .numerics import DEFAULT_TOL, Tolerance, secular_root

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
# Training stops at a certified gap of _GAP_FACTOR * tol.rel_tol times the
# objective, never asking for less than _GAP_FLOOR, which the rounding of
# the primal and dual sums can still show.
_GAP_FACTOR = 10.0
_GAP_FLOOR = 1e-12
_SHRINK = 0.2  # smoothing factor per stage
_STAGES = 23  # mu0 down to 1e-16 mu0, the relative rounding of the data
_STAGE_STEPS = 60  # Newton steps per stage
_VERTEX_STAGE = 3  # the first stage after which an LP tries its vertex
_NEWTON_STOP = 1e-26  # relative decrement that ends a stage
_QUADRATIC = 1e-10  # relative decrement below which f cannot judge a step
_ARMIJO = 1e-4
_EIG_FLOOR = 1e-12  # relative floor on the Hessian eigenvalues


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
        if self._table is not None:
            # sorted by slope, every piece is active on an interval, so L* is
            # the interpolation of -intercept over the slopes, and the kink
            # between consecutive pieces is the slope of L* between them
            slopes, intercepts = self._table[np.argsort(self._table[:, 0])].T
            self._slopes, self._conj, self._widths = slopes, -intercepts, np.diff(slopes)
            self._kinks = np.diff(self._conj) / self._widths

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
            v = np.where(z <= 0.0, 0.5 - z, 0.5 * (1.0 - z).clip(0.0) ** 2)
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
            g = (z - 1.0).clip(-1.0, 0.0)
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
            g = z.clip(-self.delta, self.delta)
        return float(g) if g.ndim == 0 else g

    @property
    def dual_domain(self) -> tuple[float, float]:
        """The interval on which the conjugate L* is finite."""
        if self.kind in ("hinge", "smooth_hinge", "logloss"):
            return -1.0, 0.0
        if self.kind == "huber":
            return -self.delta, self.delta
        if self.kind == "eps_insensitive":
            return -1.0, 1.0
        if self.kind == "pinball":
            return -self.delta, 1.0 - self.delta
        return -math.inf, math.inf

    def conjugate(self, alpha) -> np.ndarray:
        """L*(alpha) = sup_z alpha z - L(z) elementwise; +inf off the dual domain."""
        alpha = np.asarray(alpha, dtype=float)
        lo, hi = self.dual_domain
        a = alpha.clip(lo, hi)
        if self.kind in _PIECEWISE:
            v = np.interp(a, self._slopes, self._conj)
        elif self.kind == "smooth_hinge":
            v = a + 0.5 * a * a
        elif self.kind == "logloss":
            p, q = -a, 1.0 + a
            with np.errstate(divide="ignore", invalid="ignore"):  # 0 log 0 = 0
                v = np.where(p > 0.0, p * np.log(p), 0.0) + np.where(q > 0.0, q * np.log(q), 0.0)
        elif self.kind == "huber":
            v = 0.5 * a * a
        else:
            v = 0.25 * a * a
        return np.where(a == alpha, v, math.inf)

    def smoothed(self, z, mu: float):
        """Value, derivative and second derivative of a smooth stand-in, elementwise.

        The piecewise-affine kinds give their Moreau envelope
        min_u L(u) + (z - u)^2 / (2 mu), which lies within mu Lip^2 / 2 below
        L; its derivative, the maximizer of alpha z - L*(alpha) - mu alpha^2 / 2,
        ramps from one slope to the next over [t + mu s_j, t + mu s_j+1] at
        each kink t.  The other kinds are smooth already and come back as
        they are.  Every derivative lies in the dual domain.
        """
        z = np.asarray(z, dtype=float)
        if self.kind in _PIECEWISE:
            s = self._slopes
            ramp = (z[:, None] - self._kinks) / mu - s[:-1]
            width = self._widths
            alpha = s[0] + ramp.clip(0.0, width).sum(axis=1)
            curv = ((ramp > 0.0) & (ramp < width)).sum(axis=1) / mu
            value = alpha * z - np.interp(alpha, s, self._conj) - 0.5 * mu * alpha * alpha
            return value, alpha, curv
        alpha = self.subgrad(z)
        if self.kind == "smooth_hinge":
            curv = ((z > 0.0) & (z < 1.0)).astype(float)
        elif self.kind == "logloss":
            curv = -alpha * (1.0 + alpha)
        elif self.kind == "huber":
            curv = (np.abs(z) <= self.delta).astype(float)
        else:
            curv = np.full(z.shape, 2.0)
        return self.value(z), alpha, curv

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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class TrainedModel:
    """Weights plus solver diagnostics for a robust training run.

    ``value`` is the objective at ``weights``, ``dual_value`` the Fenchel dual
    objective at a feasible dual point (0 is always one: every objective is
    nonnegative), and ``gap = value - dual_value`` bounds how far ``value``
    lies above the optimum.  ``target_met`` says whether that gap reached
    the training target, max(10 tol.rel_tol, 1e-12) times ``value``; when
    it is False the gap is still a bound, only a looser one.
    ``iterations`` counts Newton steps and ``stages`` smoothing stages.
    ``finish`` is ``"active_pieces"`` when training ended at the vertex of
    a piecewise-affine loss under a polyhedral dual norm, solved from its
    active kinks, and ``"smoothing"`` otherwise.  ``unattained`` says that the
    weights separate every sample: the objective falls to its infimum 0
    along them and no weights attain it; ``dual_value`` is then 0.
    """

    weights: np.ndarray
    value: float
    iterations: int
    gap: float
    unattained: bool = False
    degenerate_data: bool = False
    dual_value: float = 0.0
    target_met: bool = False
    stages: int = 0
    finish: str = "smoothing"


def _check_pairing(loss: UnivariateLoss, p: float) -> None:
    if loss.kind == "squared":
        if p != 2:
            raise PairingMismatch("the squared loss needs a type-2 ball")
    elif p != 1:
        raise PairingMismatch("Lipschitz losses need a type-1 ball")


def _check_loss(loss) -> None:
    if not isinstance(loss, UnivariateLoss):
        hint = f', such as UnivariateLoss("{loss}")' if isinstance(loss, str) else ""
        raise UnsupportedLoss(f"loss must be a UnivariateLoss{hint}, not {type(loss).__name__}")


def _check_kind(loss: UnivariateLoss, classification: bool) -> None:
    _check_loss(loss)
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


def classification_objective(
    weights, X, y, loss: UnivariateLoss, eps: float, input_norm: NormSpec | None = None
) -> float:
    """Average margin loss plus eps times the dual norm of the weights."""
    _check_kind(loss, classification=True)
    w = as_vector(weights, "weights")
    X, y = _check_labeled(X, y, classification=True)
    return _problem(X, y, loss, eps, input_norm).primal(w)


def regression_objective(
    weights,
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    p: float,
    input_norm: NormSpec | None = None,
) -> float:
    """Regularized residual loss; the squared kind composes the square.

    The ball order must match the loss as in ``dro_train_regressor``.
    """
    _check_kind(loss, classification=False)
    _check_pairing(loss, p)
    w = as_vector(weights, "weights")
    X, y = _check_labeled(X, y, classification=False)
    return _problem(X, y, loss, eps, input_norm).primal(w)


def _smooth_norm(norm: NormSpec, w: np.ndarray, nu: float):
    """Value, gradient and Hessian of a smooth upper approximation of norm(w).

    A p-norm becomes (sum_k (w_k^2 + nu^2)^(p/2))^(1/p), at most nu d^(1/p)
    above it; the max-norm, and the maximum over blocks, become
    nu log sum exp(./nu), at most nu log(2d) or nu log(blocks) above.
    Scalings, weightings and block sums carry over by the chain rule.  The
    gradient of each lies in the dual unit ball, as a subgradient does.
    """
    if norm.kind in ("blocks", "blocks_max"):
        parts = [_smooth_norm(b, part, nu) for b, part in zip(norm.blocks, norm._split(w))]
        bounds = np.cumsum((0,) + norm.sizes)
        grads = np.zeros((len(parts), w.size))
        hess = np.zeros((len(parts), w.size, w.size))
        for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            grads[k, lo:hi] = parts[k][1]
            hess[k, lo:hi, lo:hi] = parts[k][2]
        values = np.array([part[0] for part in parts])
        if norm.kind == "blocks":
            return float(values.sum()), grads.sum(axis=0), hess.sum(axis=0)
        top = float(values.max())
        pi = np.exp((values - top) / nu)
        total = float(pi.sum())
        pi /= total
        g = pi @ grads
        H = np.tensordot(pi, hess, axes=1) + ((grads.T * pi) @ grads - np.outer(g, g)) / nu
        return top + nu * math.log(total), g, H
    if norm.kind == "weighted":
        A = norm.weight_matrix()
        v, g, H = _smooth_norm(NormSpec.p_norm(norm.p), A @ w, nu)
        return v, A.T @ g, A.T @ H @ A
    scale = norm.alpha if norm.kind == "scaled" else 1.0
    if math.isinf(norm.p):
        x = np.concatenate([w, -w])
        top = float(x.max())
        pi = np.exp((x - top) / nu)
        total = float(pi.sum())
        pi /= total
        g = pi[: w.size] - pi[w.size :]
        H = g[:, None] * g
        np.negative(H, out=H)
        H.flat[:: w.size + 1] += pi[: w.size] + pi[w.size :]
        H /= nu
        v = top + nu * math.log(total)
    else:
        p = norm.p
        s = np.sqrt(w * w + nu * nu)
        top = float(s.max())
        F = top * float(((s / top) ** p).sum()) ** (1.0 / p)
        r = (s / F) ** (p - 1.0) / s
        g = r * w
        # the rank-one term vanishes at p = 1, the diagonal's factor is 1 at p = 2
        H = np.zeros((w.size, w.size)) if p == 1.0 else (1.0 - p) * (g[:, None] * g) / F
        H.flat[:: w.size + 1] += r if p == 2.0 else r * (1.0 + (p - 2.0) * (w / s) ** 2)
        v = F
    if scale == 1.0:
        return v, g, H
    return scale * v, scale * g, scale * H


def _into_ball(alpha, A: np.ndarray, radius: float, norm: NormSpec, lo: float, hi: float):
    """alpha moved into ||A'alpha / N|| <= radius without leaving [lo, hi], or None.

    [lo, hi] contains 0.  A positive radius scales alpha toward 0.  Radius 0
    asks for A'alpha = 0: the entries strictly inside (lo, hi) absorb the
    least-norm correction, which fails when it pushes one past a bound or
    leaves more than the rounding of the sums.
    """
    N = A.shape[0]
    g = alpha @ A / N
    if radius > 0.0:
        size = norm_eval(norm, g)
        return alpha if size <= radius else alpha * (radius / size)
    free = (alpha > lo) & (alpha < hi)
    moved = alpha.copy()
    moved[free] -= np.linalg.lstsq(A[free].T, N * g, rcond=None)[0]
    rounding = 64.0 * N * np.finfo(float).eps * np.abs(moved) @ np.abs(A)
    if np.any(moved < lo) or np.any(moved > hi) or np.any(np.abs(moved @ A) > rounding):
        return None
    return moved


def _row_scale(A: np.ndarray) -> float:
    """The largest Euclidean row norm: a move of mu / scale in w moves no
    margin or residual by more than mu.  All-zero data get 1."""
    return float(np.sqrt((A * A).sum(axis=1).max())) or 1.0


class _Risk:
    """Average loss of z = Aw + c plus lam ||w||_*, its smoothing and its Fenchel dual.

    Classification takes the margins (A = diag(y) X, c = 0), regression the
    residuals (A = X, c = -y); lam = eps * Lip(L).
    """

    def __init__(self, A, c, loss: UnivariateLoss, lam: float, input_norm: NormSpec):
        self.A, self.c, self.loss, self.lam = A, c, loss, lam
        self.input_norm, self.dual_norm = input_norm, input_norm.dual_spec()
        self.scale = _row_scale(A)
        self.mu0 = float(np.mean(loss.value(c)))  # the objective at w = 0

    def primal(self, w: np.ndarray) -> float:
        z = self.A @ w + self.c
        return float(self.loss.value(z).sum() / z.size + self.lam * norm_eval(self.dual_norm, w))

    def smoothed(self, w: np.ndarray, mu: float):
        A, N = self.A, self.A.shape[0]
        v, alpha, curv = self.loss.smoothed(A @ w + self.c, mu)
        f, g, H = v.sum() / N, alpha @ A / N, (A.T * curv) @ A / N
        if self.lam > 0.0:
            nv, ng, nH = _smooth_norm(self.dual_norm, w, mu / self.scale)
            f = f + self.lam * nv
            g += self.lam * ng
            H += self.lam * nH
        return float(f), g, H

    def dual_value(self, w: np.ndarray, mu: float) -> float:
        return self._dual(self.loss.smoothed(self.A @ w + self.c, mu)[1])

    def _dual(self, alpha: np.ndarray) -> float:
        """The Fenchel dual objective at alpha moved into the constraint."""
        alpha = _into_ball(alpha, self.A, self.lam, self.input_norm, *self.loss.dual_domain)
        if alpha is None:
            return -math.inf
        return float(np.mean(alpha * self.c - self.loss.conjugate(alpha)))

    def vertex(self, w: np.ndarray, mu: float):
        """The LP vertex on the d kinks nearest to active at w and the dual
        value of its multipliers, or None when the problem is no LP or the
        kinks fix no vertex.

        The candidates are the samples' kinks a_i'w + c_i = t_j and the
        kinks of the dual norm: the zero coordinates of the 1-norm, or the
        coordinates tied with the largest of the inf-norm.  Each is ranked by
        how deep inside its slope interval the smoothing at mu puts its
        multiplier, in widths of that interval: a sample's Moreau derivative
        on the ramp t_j + mu [s_j, s_j+1], a coordinate's entry of the
        smoothed norm's gradient, or its share of the tie with the largest
        entry.  Samples off their ramps follow, nearest first.  The chosen
        rows, scaled to unit length, form the square system M w = r.  Its
        transpose gives the kink multipliers alpha_K and the free
        subgradient entries of the norm, while every other sample keeps the
        slope of its piece at the vertex; alpha_K is clipped to its slope
        interval before the dual value is taken.
        """
        loss, norm, lam = self.loss, self.dual_norm, self.lam
        if loss.kind not in _PIECEWISE or norm.kind not in ("p", "scaled") or norm.p not in (1.0, math.inf):
            return None
        A, c = self.A, self.c
        N, d = A.shape
        s, t = loss._slopes, loss._kinks
        z = A @ w + c
        # the signed distance of each margin from the ramp of each kink, in
        # ramp widths: -min(share below, share above) on the ramp
        off = np.maximum(t + mu * s[:-1] - z[:, None], z[:, None] - t - mu * s[1:]) / (mu * np.diff(s))
        j = off.argmin(axis=1)
        size = np.sqrt((A * A).sum(axis=1))
        size[size == 0.0] = 1.0
        M, r, score = A / size[:, None], (t[j] - c) / size, off[np.arange(N), j]
        if lam > 0.0:
            # the multipliers of the smoothed norm, as in _smooth_norm
            a, nu = np.abs(w), mu / self.scale
            if norm.p == 1.0:  # the kinks w_k = 0, multiplier w_k / hypot(w_k, nu) in [-1, 1]
                rows, depth = np.eye(d), 0.5 * (1.0 - a / np.hypot(a, nu))
            else:  # the kinks sign_k w_k = sign_top w_top, a share of the largest entry's weight
                top = int(a.argmax())
                sign = np.where(w >= 0.0, 1.0, -1.0)
                rows = np.diag(sign)
                rows[:, top] -= sign[top]
                ratio = np.exp((np.delete(a, top) - a[top]) / nu)
                rows, depth = np.delete(rows, top, axis=0) / math.sqrt(2.0), ratio / (1.0 + ratio)
            M, r = np.vstack([M, rows]), np.concatenate([r, np.zeros(depth.size)])
            score = np.concatenate([score, -depth])
        if score.size < d:
            return None
        pick = np.sort(np.argsort(score, kind="stable")[:d])
        K = pick[pick < N]
        try:
            wv = np.linalg.solve(M[pick], r[pick])
            alpha = loss.subgrad(A @ wv + c)  # the slopes off the kinks
            alpha[K] = 0.0
            b = -(alpha @ A) / N
            if lam > 0.0:  # less the fixed part of the norm's subgradient
                if norm.p == 1.0:
                    g0 = np.sign(wv)
                    g0[pick[pick >= N] - N] = 0.0
                else:
                    g0 = np.zeros(d)
                    g0[top] = sign[top]
                b -= lam * (norm.alpha if norm.kind == "scaled" else 1.0) * g0
            u = np.linalg.solve(M[pick].T, b)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(wv)):
            return None
        alpha[K] = np.clip(N * u[: K.size] / size[K], s[j[K]], s[j[K] + 1])
        return wv, self._dual(alpha)

    def separating_ray(self, w: np.ndarray):
        """w scaled to an objective of at most _GAP_FLOOR mu0 if its margins
        show that no weights attain the infimum, otherwise None.

        Unpenalized, a loss that never reaches its infimum 0 (logloss, with
        c = 0) has no minimizer on completely separated data (Albert and
        Anderson, Biometrika 1984).  Margins A w all above the rounding of
        A @ w witness that: along t w the objective falls to 0 and never
        reaches it.  As log1p(exp(-z)) <= exp(-z), it is at most exp(-t m)
        at t w, for m the least margin, which fixes t.
        """
        if self.lam > 0.0 or self.loss.attains_infimum:
            return None
        rounding = w.size * np.finfo(float).eps * (np.abs(self.A) @ np.abs(w))
        least = float((self.A @ w - rounding).min())
        if not least > 0.0:
            return None
        return w * (-math.log(_GAP_FLOOR * self.mu0) / least)


class _SqrtLasso:
    """(||Xw - y|| / sqrt(N) + eps ||w||_*)^2, the squared loss over a type-2 ball.

    ``primal`` is that square.  The Newton steps and the dual work on the
    square-root lasso inside it, whose root mean square is smoothed as
    sqrt(||Xw - y||^2 / N + mu^2).
    """

    def __init__(self, X, y, eps: float, input_norm: NormSpec):
        self.X, self.y, self.eps = X, y, eps
        self.input_norm, self.dual_norm = input_norm, input_norm.dual_spec()
        self.gram = X.T @ X / X.shape[0]
        self.scale = _row_scale(X)
        self.mu0 = math.sqrt(float(np.mean(y * y)))  # the root mean square at w = 0

    def primal(self, w: np.ndarray) -> float:
        r = self.X @ w - self.y
        return float((math.sqrt(np.mean(r**2)) + self.eps * norm_eval(self.dual_norm, w)) ** 2)

    def _residual(self, w: np.ndarray, mu: float):
        r = self.X @ w - self.y
        return r, math.sqrt(float(r @ r) / r.size + mu * mu)

    def smoothed(self, w: np.ndarray, mu: float):
        r, rho = self._residual(w, mu)
        Xr = self.X.T @ r / r.size
        f, g, H = rho, Xr / rho, self.gram / rho - np.outer(Xr, Xr) / rho**3
        if self.eps > 0.0:
            nv, ng, nH = _smooth_norm(self.dual_norm, w, mu / self.scale)
            f = f + self.eps * nv
            g += self.eps * ng
            H += self.eps * nH
        return f, g, H

    def dual_value(self, w: np.ndarray, mu: float) -> float:
        r, rho = self._residual(w, mu)
        N = r.size
        beta = _into_ball(r / (math.sqrt(N) * rho), self.X, self.eps / math.sqrt(N),
                          self.input_norm, -math.inf, math.inf)
        if beta is None:
            return -math.inf
        return max(-float(beta @ self.y) / math.sqrt(N), 0.0) ** 2

    def separating_ray(self, w: np.ndarray):
        return None  # a convex quadratic bounded below attains its infimum

    def vertex(self, w: np.ndarray, mu: float):
        return None  # the square-root lasso is no LP


def _problem(X: np.ndarray, y: np.ndarray, loss: UnivariateLoss, eps: float,
             input_norm: NormSpec | None):
    """The training problem of loss at radius eps on checked X and y.

    The input norm defaults to the 2-norm.  Classification kinds average L
    over the margins y * Xw, regression kinds over the residuals Xw - y,
    plus eps * Lip(L) * ||w||_*; the squared loss gives
    (root mean squared residual + eps * ||w||_*)^2 instead.
    """
    eps = radius(eps)
    norm = input_norm or NormSpec.p_norm(2.0)
    if loss.kind == "squared":
        return _SqrtLasso(X, y, eps, norm)
    if loss.is_classification:
        return _Risk(y[:, None] * X, np.zeros(y.size), loss, eps * loss.lipschitz, norm)
    return _Risk(X, -y, loss, eps * loss.lipschitz, norm)


def _newton(problem, w: np.ndarray, mu: float, budget: int):
    """Trust-region Newton steps on problem.smoothed at mu; returns the
    weights and the steps taken.

    A ramp of the smoothed loss is mu wide, so the quadratic model holds for
    moves of about mu / scale in w, which is the first trust radius.  Each
    step minimizes the model within the radius, in the eigenbasis of H, with
    the multiplier from ``secular_root``.  A step s that lowers f by less
    than _ARMIJO of the decrement -g's quarters the radius and is retried;
    an accepted step on the boundary quadruples it, so that directions in
    which f is nearly linear are crossed in a few steps.  Once the decrement falls
    below _QUADRATIC of |f|, changes of f sink into its rounding, so steps
    are accepted while they shrink the gradient: the certificate needs the
    gradient small, not only the decrement.  The stage ends at a decrement
    of _NEWTON_STOP |f|, at a full Newton step that no longer shrinks the
    gradient, or with the budget.
    """
    f, g, H = problem.smoothed(w, mu)
    radius = mu / problem.scale
    for k in range(budget):
        lam, V = np.linalg.eigh(H)
        lam = np.maximum(lam, _EIG_FLOOR * max(float(lam[-1]), problem.scale**2 / mu))
        gv = V.T @ g
        weights, poles = gv * gv, -lam
        while True:
            tau = secular_root(weights, poles, radius)
            step = -(V @ (gv / (lam + tau)))
            decrement = -float(g @ step)
            if not decrement > _NEWTON_STOP * abs(f):
                return w, k
            trial = w + step
            ft, gt, Ht = problem.smoothed(trial, mu)
            if decrement <= _QUADRATIC * abs(f):
                if math.sqrt(gt @ gt) < math.sqrt(g @ g):
                    break
                if tau == 0.0:
                    return w, k
            elif ft <= f - _ARMIJO * decrement:
                break
            radius *= 0.25
        if tau > 0.0:
            radius *= 4.0
        w, f, g, H = trial, ft, gt, Ht
    return w, budget


def _train(problem, d: int, tol: Tolerance, **flags) -> TrainedModel:
    """Minimize the problem's primal with a certified gap.

    Stage by stage the smoothing mu shrinks by _SHRINK from the problem's
    mu0 (the size of the loss at w = 0, so the first stage smooths on the
    scale of the data), Newton runs from the last stage's weights, and the
    dual value is taken at them.  From stage _VERTEX_STAGE on, a problem that
    is a linear program also offers the vertex on the kinks nearest to
    active at the stage's weights (``vertex``), with the dual value of its
    multipliers; training finishes there (``finish="active_pieces"``) when
    that vertex's gap meets the target, and otherwise goes on from the
    stage's weights as if it had not been tried.  The loop stops once
    primal - dual <= max(10 tol.rel_tol, 1e-12) * primal (1e-9 relative at
    the default tolerance), or after _STAGES stages; the gap it returns is
    a bound either way.  It stops early at weights along which the
    objective falls to an unattained infimum 0 (``separating_ray``); the
    dual value is then 0, which alpha = 0 attains.
    """
    w = best_w = np.zeros(d)
    best_p = problem.primal(w)
    best_d = 0.0
    target = max(_GAP_FACTOR * tol.rel_tol, _GAP_FLOOR)
    mu = problem.mu0
    steps = stages = 0
    unattained = False
    finish = "smoothing"
    while stages < _STAGES and best_p - best_d > target * best_p:
        w, k = _newton(problem, w, mu, _STAGE_STEPS)
        steps += k
        stages += 1
        ray = problem.separating_ray(w)
        if ray is not None:
            best_w, best_p, best_d, unattained = ray, problem.primal(ray), 0.0, True
            break
        value = problem.primal(w)
        if value < best_p:
            best_w, best_p = w, value
        best_d = max(best_d, problem.dual_value(w, mu))
        vertex = None
        if stages >= _VERTEX_STAGE and best_p - best_d > target * best_p:
            vertex = problem.vertex(w, mu)
        if vertex is not None:
            wv, dv = vertex
            pv = problem.primal(wv)
            if pv - dv <= target * pv:
                best_w, best_p, best_d, finish = wv, pv, max(best_d, dv), "active_pieces"
        mu *= _SHRINK
    gap = max(best_p - best_d, 0.0)
    return TrainedModel(
        weights=best_w,
        value=best_p,
        iterations=steps,
        gap=gap,
        unattained=unattained,
        dual_value=best_d,
        target_met=gap <= target * best_p,
        stages=stages,
        finish=finish,
        **flags,
    )


def dro_train_classifier(
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    input_norm: NormSpec | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TrainedModel:
    """Train a linear scorer against input perturbations within radius eps.

    eps must be finite and nonnegative.  ``gap`` bounds the suboptimality
    of the returned weights (see the module docstring).
    """
    _check_kind(loss, classification=True)
    X, y = _check_labeled(X, y, classification=True)
    problem = _problem(X, y, loss, eps, input_norm)
    return _train(problem, X.shape[1], tol, degenerate_data=bool(np.unique(y).size == 1))


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

    eps must be finite and nonnegative, and the ball order must match the
    loss: squared requires p = 2, the Lipschitz kinds require p = 1.
    ``gap`` bounds the suboptimality of the returned weights (see the module
    docstring).
    """
    _check_kind(loss, classification=False)
    _check_pairing(loss, p)
    X, y = _check_labeled(X, y, classification=False)
    return _train(_problem(X, y, loss, eps, input_norm), X.shape[1], tol)


def dro_objective_crosscheck(
    model: TrainedModel,
    X,
    y,
    loss: UnivariateLoss,
    eps: float,
    input_norm: NormSpec | None = None,
):
    """Replay a trained objective through the generic worst-case machinery.

    At fixed weights the trained loss is piecewise affine in the perturbed
    input, so the regularized objective must coincide with a worst-case
    risk over a type-1 whole-space ball.  Classification folds the label
    into the atom (y * x); regression shifts each atom along w so a single
    piecewise description covers all samples.  Returns (regularized value,
    worst-case value, difference).
    """
    _check_loss(loss)
    pieces = loss.pieces()  # raises UnsupportedLoss for smooth kinds
    w = as_vector(model.weights, "weights")
    X, y = _check_labeled(X, y, loss.is_classification)
    problem = _problem(X, y, loss, eps, input_norm)
    regularized = problem.primal(w)
    if loss.is_classification:
        atoms = problem.A  # the atoms y * x
    else:
        wn = float(w @ w)
        if wn <= 1e-24:  # no shift: the risk is the nominal loss at w = 0
            return regularized, problem.mu0, regularized - problem.mu0
        atoms = X - np.outer(y, w) / wn
    slopes, intercepts = np.array(pieces).T
    pwa = PiecewiseAffineLoss(zip(np.outer(slopes, w), intercepts))
    wc = wc_risk_pwa(pwa, DiscreteDistribution(atoms), BallSpec(eps, 1.0, norm=problem.input_norm))
    return regularized, wc, regularized - wc


class RobustLinearClassifier(ParamsMixin):
    """Estimator-style wrapper around dro_train_classifier."""

    _PARAMS = ("eps", "loss", "delta")

    def __init__(self, eps: float = 0.1, loss: str = "hinge", delta: float | None = None):
        self.eps = eps
        self.loss = loss
        self.delta = delta

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


class RobustLinearRegressor(ParamsMixin):
    """Estimator-style wrapper around dro_train_regressor."""

    _PARAMS = ("eps", "loss", "delta")

    def __init__(self, eps: float = 0.1, loss: str = "squared", delta: float | None = None):
        self.eps = eps
        self.loss = loss
        self.delta = delta

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
