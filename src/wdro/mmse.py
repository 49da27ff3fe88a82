"""Distributionally robust minimum mean square error estimation.

The worst-case MMSE over a ball of covariance matrices maximizes the
concave Schur-complement objective

    f(S) = Tr[S_xx - S_xy S_yy^{-1} S_yx]

over covariances S within a moment (Gelbrich) distance eps of the nominal
covariance.  A Frank-Wolfe scheme solves it: each step maximizes the
linearized objective Tr[grad . D] over the ball, which has the closed form

    D = gamma^2 (gamma I - grad)^{-1} Sigma (gamma I - grad)^{-1}

with gamma solving Tr[Sigma (I - gamma (gamma I - grad)^{-1})^2] = eps^2
(the Gelbrich worst case of Tr[grad S], by ``numerics.quadratic_multiplier``),
and moves to the maximizer of f on the segment [S_k, D_k] (an exact line
search: the root of the slope of f along D_k - S_k, which is nonincreasing
because f is concave).  The linearization gap <grad f(S_k), D_k - S_k>
bounds f* - f(S_k) (Jaggi, *Revisiting Frank-Wolfe*, ICML 2013).  The final
affine estimator reads x(y) = A (y - mean_y) + mean_x with
A = S_xy S_yy^{-1} at the last iterate, the best: the line search never
lowers f.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from ._validation import ParamsMixin, as_matrix, as_vector, check_symmetric, radius
from .errors import NoBracket, NotPSD, SingularBlock
from .numerics import (
    DEFAULT_TOL, SpectralDecomposition, Tolerance, lift_singular, monotone_root, psd_eig, quadratic_multiplier
)

__all__ = [
    "JointMoments",
    "FWState",
    "AffineEstimator",
    "FWDirection",
    "FWSolveResult",
    "mmse_objective",
    "mmse_gradient",
    "fw_direction",
    "fw_iterates",
    "fw_solve",
    "RobustMMSE",
]


@dataclasses.dataclass(frozen=True, eq=False)
class JointMoments:
    """Joint mean and covariance of a signal/observation pair (x, y), and its spectrum."""

    mx: int
    my: int
    mean: np.ndarray
    cov: np.ndarray
    spectrum: SpectralDecomposition = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if not (self.mx >= 1 and self.my >= 1):
            raise ValueError(f"blocks need mx >= 1 and my >= 1, got mx={self.mx}, my={self.my}")
        mean = as_vector(self.mean, "mean")
        cov, spectrum = psd_eig(as_matrix(self.cov, "cov"), name="cov")
        if mean.size != self.mx + self.my or cov.shape[0] != mean.size:
            raise ValueError("mean/cov sizes must match mx + my")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def mean_x(self) -> np.ndarray:
        return self.mean[: self.mx]

    @property
    def mean_y(self) -> np.ndarray:
        return self.mean[self.mx :]


@dataclasses.dataclass(frozen=True, eq=False)
class FWState:
    """Snapshot of one Frank-Wolfe iteration."""

    S: np.ndarray
    k: int
    value: float
    gap: float


@dataclasses.dataclass(frozen=True, eq=False)
class AffineEstimator:
    """Affine map y -> gain @ y + offset."""

    gain: np.ndarray
    offset: np.ndarray

    def predict(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return self.gain @ y + self.offset
        return y @ self.gain.T + self.offset


class FWDirection(NamedTuple):
    D: np.ndarray
    gamma_star: float
    trace_residual: float


class FWSolveResult(NamedTuple):
    S: np.ndarray
    estimator: AffineEstimator
    gaps: list
    regularization: float
    target_met: bool = False  # the last gap is at most tol.rel_tol times the trace


def _split(S: np.ndarray, mx: int):
    return S[:mx, :mx], S[:mx, mx:], S[mx:, mx:]


def _schur(S: np.ndarray, mx: int) -> tuple[float, np.ndarray]:
    """f(S) and G = S_xy S_yy^{-1}, from one solve with S_yy."""
    S_xx, S_xy, S_yy = _split(S, mx)
    w = np.linalg.eigvalsh(S_yy)
    if w.min() <= 1e-12 * np.abs(w).max():
        raise SingularBlock("observation block S_yy is numerically singular")
    G = np.linalg.solve(S_yy, S_xy.T).T
    return float(np.trace(S_xx) - np.sum(S_xy * G)), G


def _gradient(G: np.ndarray) -> np.ndarray:
    grad = np.block([[np.eye(G.shape[0]), -G], [-G.T, G.T @ G]])
    return 0.5 * (grad + grad.T)


def mmse_objective(S, mx: int) -> float:
    """Schur-complement trace Tr[S_xx - S_xy S_yy^{-1} S_yx]; concave in S."""
    return _schur(check_symmetric(as_matrix(S, "S"), tol=1e-8, name="S"), mx)[0]


def mmse_gradient(S, mx: int) -> np.ndarray:
    """Gradient of the Schur-complement trace in the symmetric pairing.

    With G = S_xy S_yy^{-1}, the blocks are [[I, -G], [-G', G'G]]; the
    matrix is symmetric positive semidefinite.
    """
    S = check_symmetric(as_matrix(S, "S"), tol=1e-8, name="S")
    return _gradient(_schur(S, mx)[1])


def _slope(T: np.ndarray, E: np.ndarray, mx: int) -> tuple[float, float]:
    """Slope <grad f(T), E> of f along E at T, and its derivative along E.

    With G = T_xy T_yy^{-1}, the slope is Tr[(I, -G) E (I, -G)'] and its
    derivative -2 Tr[R T_yy^{-1} R'] with R = E_xy - G E_yy, which is never
    positive because f is concave.
    """
    _, T_xy, T_yy = _split(T, mx)
    E_xx, E_xy, E_yy = _split(E, mx)
    T_yy_inv = np.linalg.inv(T_yy)
    G = T_xy @ T_yy_inv
    GE = G @ E_yy
    R = E_xy - GE
    slope = E_xx.trace() - 2.0 * (G * E_xy).sum() + (GE * G).sum()
    return float(slope), -2.0 * float(((R @ T_yy_inv) * R).sum())


def fw_direction(grad, nominal_cov, eps: float) -> FWDirection:
    """Maximize Tr[grad . D] over covariances within eps of the nominal, for
    a finite, positive eps.

    The gradient must be positive semidefinite, as ``mmse_gradient`` is;
    otherwise NotPSD is raised.  Then F = gamma (gamma I - grad)^{-1} >= I
    and D = F Sigma F >= lam_min(Sigma) I.  Returns the closed-form
    maximizer, the scalar multiplier and the residual of the trace
    constraint.  As D is F Sigma F, its squared distance to Sigma is
    Tr[(F - I) Sigma (F - I)], which the residual reads in the eigenbasis
    of grad.  Only a gradient that is exactly zero returns the nominal: the
    maximizer does not change when grad is scaled by a positive factor.
    The direction is closed-form, so it takes no tolerance; the input checks
    use fixed relative thresholds.
    ``fw_solve`` skips them: its nominal was checked in ``JointMoments`` and
    its gradients are symmetric by construction.
    """
    grad = check_symmetric(as_matrix(grad, "grad"), tol=1e-8, name="grad")
    sigma = psd_eig(as_matrix(nominal_cov, "nominal_cov"), name="nominal_cov")[0]
    return _direction(grad, sigma, radius(eps, positive=True))


def _direction(grad: np.ndarray, sigma: np.ndarray, eps: float) -> FWDirection:
    if not grad.any():
        return FWDirection(sigma.copy(), math.inf, 0.0)

    dec = SpectralDecomposition.of(grad)
    g, V = dec.values, dec.vectors
    if g[-1] < -1e-9 * np.abs(g).max():
        raise NotPSD(f"grad has eigenvalue {g[-1]:.3e} below -1e-9 * scale")
    S_t = V.T @ sigma @ V
    gamma, inv = quadratic_multiplier(g, g**2 * np.clip(np.diag(S_t), 0.0, None), eps)
    if gamma == g[0]:
        raise NoBracket("nominal_cov is singular along the top eigenvector of grad")

    factor = 1.0 + g * inv
    D = V @ (S_t * factor[:, None] * factor[None, :]) @ V.T
    D = 0.5 * (D + D.T)
    residual = abs(float((g * inv) ** 2 @ np.diag(S_t)) - eps**2)
    return FWDirection(D, float(gamma), residual)


def fw_iterates(
    nominal: JointMoments,
    eps: float,
    iters: int = 500,
    tol: Tolerance = DEFAULT_TOL,
):
    """The Frank-Wolfe iterates of ``fw_solve``, one ``FWState`` at a time.

    Starts from the nominal covariance (lifted by ``lift_singular`` when
    it is singular) and keeps every iterate feasible: each step moves to
    the maximizer of the objective on the segment from the iterate to the
    Frank-Wolfe direction.  Each state carries the iterate, its objective
    and its linearization gap, which certifies f* - f(S_k) <= gap_k.  The
    iteration stops after the first gap of at most tol.rel_tol times the
    trace of the nominal, or after ``iters`` states.  The arguments are
    checked here (eps finite and nonnegative, iters at least 1); the
    returned generator's return value is the last iterate: that of the last
    state when its gap stopped the run, else one more step on.
    """
    eps, cov, _ = _lifted_nominal(nominal, eps, iters)
    return _last_iterate(_fw_loop(cov, nominal.mx, eps, iters, tol))


def _last_iterate(loop):
    return (yield from loop)[0]


def _lifted_nominal(nominal: JointMoments, eps: float, iters: int):
    """Checks the run's arguments; the radius, lifted nominal and lift."""
    eps = radius(eps)
    if iters < 1:
        raise ValueError("need at least one iteration")
    return (eps, *lift_singular(nominal.cov, nominal.spectrum))


def _gap_target(cov: np.ndarray, tol: Tolerance) -> float:
    return tol.rel_tol * float(np.trace(cov))


def _fw_loop(cov: np.ndarray, mx: int, eps: float, iters: int, tol: Tolerance):
    # returns the last iterate and its gain, reused when the gap ended the run
    stop = _gap_target(cov, tol)
    S = cov.copy()
    for k in range(iters):
        value, G = _schur(S, mx)
        if eps == 0.0:
            direction = FWDirection(cov.copy(), math.inf, 0.0)
        else:
            direction = _direction(_gradient(G), cov, eps)
        E = direction.D - S
        at_S = _slope(S, E, mx)
        gap = at_S[0]
        yield FWState(S=S, k=k, value=value, gap=gap)
        if gap <= stop:
            return S, G
        t = _line_search(S, E, mx, at_S)
        S = (1.0 - t) * S + t * direction.D
        S = 0.5 * (S + S.T)
    return S, _schur(S, mx)[1]


def _line_search(S: np.ndarray, E: np.ndarray, mx: int, at_S: tuple[float, float]) -> float:
    """The maximizer of f(S + t E) over t in [0, 1], f concave.

    ``at_S`` is ``_slope(S, E, mx)``, the slope and curvature at t = 0; the
    slope there is the gap, positive whenever this runs, so the negated
    slope changes sign on [0, 1] unless the slope at 1 is still
    nonnegative, and then t = 1.  Neither end is evaluated twice.
    """

    def neg_slope(t: float) -> tuple[float, float]:
        slope, curvature = _slope(S + t * E, E, mx)
        return -slope, -curvature

    at_D = neg_slope(1.0)
    if at_D[0] <= 0.0:
        return 1.0
    return monotone_root(neg_slope, 0.0, 1.0, f_lo=(-at_S[0], -at_S[1]), f_hi=at_D)


def fw_solve(
    nominal: JointMoments,
    eps: float,
    iters: int = 500,
    tol: Tolerance = DEFAULT_TOL,
) -> FWSolveResult:
    """Frank-Wolfe maximization of the worst-case MMSE over the ball of a
    finite, nonnegative radius eps.

    Runs the iterates of ``fw_iterates`` and keeps only the gaps and the
    last iterate, so the result does not grow with ``iters``; the affine
    estimator comes from that iterate.  It is the best one: each step
    maximizes f on a segment that starts at the previous iterate, so f
    never falls from one iterate to the next.  Per-step linearization gaps
    certify f* - f(S_k) <= gap_k; the iteration stops once a gap falls to
    tol.rel_tol times the trace of the nominal, which the exact line search
    reaches in about ten steps, so ``iters`` is a cap rather than a count.
    ``target_met`` is False when the cap came first; the last gap is then
    still a bound, only a looser one.
    """
    eps, cov, lift = _lifted_nominal(nominal, eps, iters)
    iterates = _fw_loop(cov, nominal.mx, eps, iters, tol)
    gaps = []
    while True:
        try:
            gaps.append(next(iterates).gap)
        except StopIteration as done:
            S, gain = done.value
            break
    estimator = AffineEstimator(gain=gain, offset=nominal.mean_x - gain @ nominal.mean_y)
    return FWSolveResult(S, estimator, gaps, lift, gaps[-1] <= _gap_target(cov, tol))


class RobustMMSE(ParamsMixin):
    """Estimator-style wrapper fitting joint sample moments, then fw_solve."""

    _PARAMS = ("eps", "iters")

    def __init__(self, eps: float = 0.1, iters: int = 200):
        self.eps = eps
        self.iters = iters

    def fit(self, X, Y) -> "RobustMMSE":
        from .shrinkage import sample_moments

        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        joint = sample_moments(np.hstack([X, Y]))
        moments = JointMoments(X.shape[1], Y.shape[1], joint.mu, joint.sigma)
        result = fw_solve(moments, self.eps, self.iters)
        self.estimator_ = result.estimator
        self.S_ = result.S
        self.gaps_ = result.gaps
        return self

    def predict(self, Y) -> np.ndarray:
        return self.estimator_.predict(Y)
