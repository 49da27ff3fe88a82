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

from ._validation import ParamsMixin, as_vector, check_symmetric, radius
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
        cov, spectrum = psd_eig(self.cov, name="cov")
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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
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


def _schur(S: np.ndarray, mx: int) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """f(S), the gain G = S_xy S_yy^{-1}, and the factor of S_yy they come from.

    One ``eigh`` of S_yy = Q diag(w) Q' gives the whitening W = diag(w)^{-1/2} Q',
    with W S_yy W' = I, and H = S_xy W'; then G = H W and
    f(S) = Tr[S_xx] - ||H||_F^2.  Raises SingularBlock when the least
    eigenvalue of S_yy is at most 1e-12 times the largest.
    """
    w, Q = np.linalg.eigh(S[mx:, mx:])
    if w[0] <= 1e-12 * max(abs(float(w[0])), abs(float(w[-1]))):
        raise SingularBlock("observation block S_yy is numerically singular")
    W = Q.T / np.sqrt(w)[:, None]
    H = S[:mx, mx:] @ W.T
    return float(S[:mx, :mx].trace() - (H * H).sum()), H @ W, W, H


def _gradient_factor(G: np.ndarray) -> np.ndarray:
    """B = [I, -G], whose B'B = [[I, -G], [-G', G'G]] is the gradient of f."""
    return np.concatenate((np.eye(G.shape[0]), -G), axis=1)


def mmse_objective(S, mx: int) -> float:
    """Schur-complement trace Tr[S_xx - S_xy S_yy^{-1} S_yx]; concave in S."""
    return _schur(check_symmetric(S, tol=1e-8, name="S"), mx)[0]


def mmse_gradient(S, mx: int) -> np.ndarray:
    """Gradient of the Schur-complement trace in the symmetric pairing.

    With G = S_xy S_yy^{-1}, the blocks are [[I, -G], [-G', G'G]]: the
    matrix is B'B with B = [I, -G], symmetric positive semidefinite of
    rank mx.
    """
    B = _gradient_factor(_schur(check_symmetric(S, tol=1e-8, name="S"), mx)[1])
    grad = B.T @ B
    return 0.5 * (grad + grad.T)


def fw_direction(grad, nominal_cov, eps: float) -> FWDirection:
    """Maximize Tr[grad . D] over covariances within eps of the nominal, for
    a finite, positive eps.

    The gradient must be positive semidefinite, as ``mmse_gradient`` is;
    otherwise NotPSD is raised.  Then F = gamma (gamma I - grad)^{-1} >= I
    and D = F Sigma F >= lam_min(Sigma) I.  Returns the closed-form
    maximizer, the scalar multiplier and the residual of the trace
    constraint, |Tr[(F - I) Sigma (F - I)] - eps^2|.  The maximizer is taken
    on the sphere 64 ulps of sqrt(Tr Sigma) inside the ball (``_INSIDE``),
    so it lies within eps even after the rounding of a recomputed distance;
    the residual is then about 2 eps times that slack.  Only a gradient that
    is exactly zero returns the nominal: the maximizer does not change when
    grad is scaled by a positive factor.  The direction is closed-form, so
    it takes no tolerance; the input checks use fixed relative thresholds.
    The checked grad is factored as B'B (``_psd_factor``) and ``fw_solve``'s
    own routine takes it from there; for a gradient of ``mmse_gradient``
    that factor is [I, -G] bit for bit, so this returns the direction
    ``fw_solve`` steps toward.
    """
    grad = check_symmetric(grad, tol=1e-8, name="grad")
    sigma = psd_eig(nominal_cov, name="nominal_cov")[0]
    eps = radius(eps, positive=True)
    if not grad.any():
        return FWDirection(sigma.copy(), math.inf, 0.0)
    g = np.linalg.eigvalsh(grad)
    if g[0] < -1e-9 * max(-float(g[0]), float(g[-1])):
        raise NotPSD(f"grad has eigenvalue {g[0]:.3e} below -1e-9 * scale")
    return _direction(_psd_factor(grad), sigma, eps)


def _psd_factor(grad: np.ndarray) -> np.ndarray:
    """Rows B with B'B = grad, for a PSD grad: Cholesky without pivoting, in
    which a pivot of at most 1e-12 times the largest diagonal entry counts
    as zero and gives no row.  The MMSE gradient's leading identity block
    makes its first mx rows [I, -G] exactly, and the rest pivots on rounding.
    """
    rest = grad.copy()
    floor = 1e-12 * float(np.diag(grad).max())
    rows = []
    for i in range(grad.shape[0]):
        pivot = rest[i, i]
        if pivot <= floor:
            continue
        row = np.zeros(grad.shape[0])
        row[i:] = rest[i, i:] / math.sqrt(pivot)
        rest[i:, i:] -= np.outer(row[i:], row[i:])
        rows.append(row)
    return np.array(rows)


# The direction aims this share of sqrt(Tr Sigma) inside the ball: 64 ulps,
# against about 8 ulps of rounding in the matrix square roots with which
# ``gelbrich_distance`` checks it.  Full steps return the direction itself, so
# without the slack the recomputed distance of the answer read outside the
# ball about as often as inside (25 of 80 seeded runs).
_INSIDE = 64.0 * float(np.finfo(float).eps)


def _direction(B: np.ndarray, sigma: np.ndarray, eps: float) -> FWDirection:
    """The Frank-Wolfe direction for the gradient B'B, from the eigenbasis of BB'.

    B is r x m (r = mx in ``fw_solve``, where BB' = I + GG').  With
    BB' = R diag(kappa) R' and the rows of P = R'B, the nonzero eigenpairs of
    B'B are kappa_i and P_i' / sqrt(kappa_i), so by Woodbury
    F = gamma (gamma I - B'B)^{-1} = I + P' diag(1 / (gamma - kappa)) P, the
    multiplier's secular weights are kappa_i (P Sigma P')_ii, and
    Tr[(F - I) Sigma (F - I)], the squared distance of D = F Sigma F from
    Sigma, is the sum of those weights over (gamma - kappa)^2.  The
    multiplier puts D at the radius eps less the ``_INSIDE`` slack (half of
    eps when eps is below twice the slack).  D costs O(m^2 r) on top of one
    r x r ``eigh``, in place of the m x m ``eigh`` of B'B.
    """
    kappa, R = np.linalg.eigh(B @ B.T)
    P = R[:, ::-1].T @ B
    kappa = kappa[::-1]
    P_sigma = P @ sigma
    numer = kappa * (P_sigma * P).sum(axis=1).clip(0.0)
    slack = _INSIDE * math.sqrt(float(sigma.trace()))
    gamma, inv = quadratic_multiplier(kappa, numer, eps - slack if eps > 2.0 * slack else 0.5 * eps)
    if gamma == kappa[0]:
        raise NoBracket("nominal_cov is singular along the top eigenvector of grad")
    F_sigma = sigma + P.T @ (inv[:, None] * P_sigma)
    D = F_sigma + (F_sigma @ P.T) @ (inv[:, None] * P)
    residual = abs(float(numer @ (inv * inv)) - eps**2)
    return FWDirection(0.5 * (D + D.T), float(gamma), residual)


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
        value, G, W, H = _schur(S, mx)
        B = _gradient_factor(G)
        D = cov.copy() if eps == 0.0 else _direction(B, cov, eps).D
        E = D - S
        gap = float(((B @ E) * B).sum())
        yield FWState(S=S, k=k, value=value, gap=gap)
        if gap <= stop:
            return S, G
        t = _line_search(_segment(E, mx, W, H), gap)
        S = (1.0 - t) * S + t * D
        S = 0.5 * (S + S.T)
    return S, _schur(S, mx)[1]


def _segment(E: np.ndarray, mx: int, W: np.ndarray, H: np.ndarray):
    """The slope of f along E at S + tE, and its derivative, as a function of t.

    W and H come from ``_schur`` at S.  With W E_yy W' = U diag(lam) U',
    A = H U and C = E_xy W' U, the gain at S + tE has the columns
    rho_k (a_k + t c_k) in that basis, rho_k = 1 / (1 + t lam_k), so

        slope(t) = Tr[E_xx] - sum_k [(2 a_k'c_k - lam_k |a_k|^2) rho_k^2
                                     + t |c_k|^2 rho_k (1 + rho_k)],
        slope'(t) = -2 sum_k rho_k^3 |c_k - lam_k a_k|^2,

    never positive because f is concave.  One my x my ``eigh`` per segment;
    each evaluation is then O(my).
    """
    lam, U = np.linalg.eigh(W @ E[mx:, mx:] @ W.T)
    A = H @ U
    C = E[:mx, mx:] @ W.T @ U
    p = 2.0 * (A * C).sum(axis=0) - lam * (A * A).sum(axis=0)
    c2 = (C * C).sum(axis=0)
    R = C - A * lam
    r2 = (R * R).sum(axis=0)
    trace = float(E[:mx, :mx].trace())

    def slope(t: float) -> tuple[float, float]:
        rho = 1.0 / (1.0 + t * lam)
        rho2 = rho * rho
        return trace - float(p @ rho2) - t * float(c2 @ (rho + rho2)), -2.0 * float(r2 @ (rho2 * rho))

    return slope


def _line_search(slope, gap: float) -> float:
    """The maximizer of f(S + t E) over t in [0, 1], f concave.

    ``slope`` is the ``_segment`` of E; the slope at t = 0 is the gap,
    positive whenever this runs, so the negated slope changes sign on
    [0, 1] unless the slope at 1 is still nonnegative, and then t = 1.
    The gap is handed over as the value at 0 (with the curvature there
    written down, not evaluated), so each point is evaluated once.
    """

    def neg_slope(t: float) -> tuple[float, float]:
        value, curvature = slope(t)
        return -value, -curvature

    at_D = neg_slope(1.0)
    if at_D[0] <= 0.0:
        return 1.0
    return monotone_root(neg_slope, 0.0, 1.0, f_lo=(-gap, math.nan), f_hi=at_D)


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

    An iteration works on small blocks only: one ``eigh`` of S_yy gives
    f(S_k), the gain G and the whitening of S_yy (``_schur``); the gradient
    is B'B with B = [I, -G], of rank mx, so the direction takes one mx x mx
    ``eigh`` (``_direction``); the gap is Tr[B E B'] for E = D_k - S_k; and
    the line search takes one my x my ``eigh`` of the whitened E_yy, after
    which each slope costs O(my) (``_segment``).  The radius must leave the
    multiplier a bracket of positive, finite width in floating point;
    otherwise NoBracket names eps.
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
