"""Worst-case quadratic risk over moment (Gelbrich) uncertainty sets.

The uncertainty set collects all mean/covariance pairs within a Gelbrich
distance ``eps`` of a nominal pair.  For a quadratic loss
``xi' Q xi + 2 q' xi`` the worst case reduces to a one-dimensional root
finding problem in the dual multiplier gamma: with Q = V diag(lam) V',
r = V'(q + Q mu) and S = V' Sigma V, the optimality condition reads

    sum_k (r_k^2 + lam_k^2 S_kk) / (gamma - lam_k)^2 = eps^2,

whose left side is strictly decreasing in gamma and equals the squared
Gelbrich distance from the center to the extremal moments at gamma.  The
root therefore puts the extremal pair exactly on the ball boundary.  When
no root exists with gamma I > Q and gamma >= 0, the dual's derivative
eps^2 - lhs is nonnegative from gamma = max(0, lam_max) on, so that end
minimizes the dual; the result is flagged through ``interior=False``.
The multiplier comes from ``numerics.quadratic_multiplier``, which the
type-2 dual and the Frank-Wolfe direction of ``mmse`` share.

Because the worst case depends only on moments, the same machinery prices
worst-case risks over elliptical families with fixed generator.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional

import numpy as np

from ._validation import as_vector, radius
from .empirical_risk import QuadraticLoss
from .errors import DimensionMismatch, NotPSD, NumericalFailure, UnsupportedCase
from .numerics import DEFAULT_TOL, Tolerance, lift_singular, quadratic_multiplier
from .transport import DiscreteDistribution, MomentPair, gelbrich_distance, moments, wasserstein_p

__all__ = [
    "GelbrichBall",
    "EllipticalSpec",
    "GelbrichRiskResult",
    "gelbrich_hull_contains",
    "projection_check",
    "gelbrich_risk_quadratic",
    "support_V",
    "wc_risk_elliptical_quadratic",
]


@dataclasses.dataclass(frozen=True, eq=False)
class GelbrichBall:
    """All moment pairs within Gelbrich distance eps of the center; eps must
    be finite and nonnegative."""

    center: MomentPair
    eps: float

    def __post_init__(self):
        object.__setattr__(self, "eps", radius(self.eps))


_GENERATORS = ("gaussian", "logistic", "t")


@dataclasses.dataclass(frozen=True, eq=False)
class EllipticalSpec:
    """Elliptical family member identified by generator and moments.

    The generator only labels the family; worst-case values depend on the
    moments alone.  Sampling and density evaluation are provided for the
    Gaussian generator.
    """

    generator: str
    moments: MomentPair
    nu: Optional[float] = None

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator == "t":
            if self.nu is None or not self.nu > 2:
                raise ValueError("the t generator needs nu > 2 for finite covariance")

    def sample(self, rng: np.random.RandomState, n: int) -> np.ndarray:
        if self.generator != "gaussian":
            raise UnsupportedCase("sampling is implemented for the Gaussian generator only")
        root = self.moments.spectrum.sqrt()
        return self.moments.mu[None, :] + rng.randn(n, self.moments.dim) @ root.T

    def logpdf(self, x) -> float:
        if self.generator != "gaussian":
            raise UnsupportedCase("densities are implemented for the Gaussian generator only")
        x = as_vector(x, "x")
        eig = self.moments.spectrum
        if eig.values.min() <= 0:
            raise NotPSD("a density requires a positive definite covariance")
        diff = eig.vectors.T @ (x - self.moments.mu)
        quad = float(np.sum(diff**2 / eig.values))
        logdet = float(np.sum(np.log(eig.values)))
        m = self.moments.dim
        return -0.5 * (m * math.log(2 * math.pi) + logdet + quad)


class GelbrichRiskResult(NamedTuple):
    value: float
    extremal: MomentPair
    gamma_star: float
    interior: bool
    primal_value: float
    regularization: float


def gelbrich_hull_contains(
    ball: GelbrichBall, candidate: MomentPair, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Membership test: Gelbrich distance to the center at most
    eps + tol.rel_tol * (1 + eps)."""
    if candidate.dim != ball.center.dim:
        raise DimensionMismatch(
            f"candidate dimension {candidate.dim} differs from center {ball.center.dim}"
        )
    dist = gelbrich_distance(ball.center, candidate)
    return dist <= ball.eps + tol.rel_tol * (1.0 + ball.eps)


def projection_check(
    ball: GelbrichBall,
    Q: DiscreteDistribution,
    reference: DiscreteDistribution,
    p: float = 2.0,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """One instance of the implication: a type-p ball maps into the hull.

    If W_p(Q, reference) <= eps (and p >= 2, so the type-2 distance is no
    larger) then the moments of Q must lie in the Gelbrich ball around the
    moments of the reference.  Returns the truth of that implication; the
    ball center must carry the reference moments.  Premise and conclusion
    allow eps the same slack, tol.rel_tol * (1 + eps).
    """
    if p < 2.0:
        raise ValueError("the moment projection needs order p >= 2")
    ref_moments = moments(reference)
    if (
        np.max(np.abs(ref_moments.mu - ball.center.mu)) > 1e-8
        or np.max(np.abs(ref_moments.sigma - ball.center.sigma)) > 1e-8
    ):
        raise ValueError("ball center must equal the reference distribution's moments")
    dist = wasserstein_p(Q, reference, p).distance
    if dist > ball.eps + tol.rel_tol * (1.0 + ball.eps):
        return True  # the premise fails, so the implication holds
    return gelbrich_hull_contains(ball, moments(Q), tol)


def _quadratic_moment_risk(loss: QuadraticLoss, mu: np.ndarray, sigma: np.ndarray) -> float:
    return float(np.sum(loss.Q * sigma) + mu @ loss.Q @ mu + 2.0 * loss.q @ mu)


def gelbrich_risk_quadratic(loss: QuadraticLoss, center: MomentPair, eps: float) -> GelbrichRiskResult:
    """Worst-case quadratic loss over a Gelbrich ball of moment pairs, of a
    finite, positive radius eps.

    Solves the scalar boundary equation for the dual multiplier and returns
    the value together with the extremal moments

        mu* = (gamma I - Q)^{-1} (gamma mu + q),
        Sigma* = gamma^2 (gamma I - Q)^{-1} Sigma (gamma I - Q)^{-1}.

    The value is computed from the dual objective and cross-checked against
    the primal risk of the extremal pair.  A rank-deficient center
    covariance is nudged by delta*I (``numerics.lift_singular`` on its stored
    spectrum; delta reported in the result).  When the boundary equation
    has no admissible root the multiplier is the left end max(0, lam_max),
    where the dual is least, and ``interior`` is False.
    """
    if center.dim != loss.dim:
        raise DimensionMismatch(
            f"loss dimension {loss.dim} does not match center dimension {center.dim}"
        )
    eps = radius(eps, positive=True)
    mu_hat = center.mu

    if np.all(loss.Q == 0.0):
        # pure mean shift: covariance cannot change a linear loss
        qn = float(np.linalg.norm(loss.q))
        if qn == 0.0:
            return GelbrichRiskResult(0.0, center, 0.0, False, 0.0, 0.0)
        mu_star = mu_hat + eps * loss.q / qn
        value = 2.0 * float(loss.q @ mu_hat) + 2.0 * eps * qn
        extremal = MomentPair(mu_star, center.sigma)
        return GelbrichRiskResult(value, extremal, qn / eps, True, value, 0.0)

    sigma, delta = lift_singular(center.sigma, center.spectrum)
    lam, V = loss.spectrum.values, loss.spectrum.vectors
    r = V.T @ (loss.q + loss.Q @ mu_hat)
    S_t = V.T @ sigma @ V
    numer = r**2 + lam**2 * np.diag(S_t)
    # the dual's derivative is eps^2 - lhs(gamma); when lhs <= eps^2 at the
    # left end max(0, lam_max), that end is the minimizer
    gamma, inv = quadratic_multiplier(lam, numer, eps)
    interior = gamma > max(0.0, float(lam[0]))
    mu_star = V @ (V.T @ mu_hat + r * inv)
    scale = 1.0 + lam * inv
    sigma_star = V @ (S_t * scale[:, None] * scale[None, :]) @ V.T
    extremal = MomentPair(mu_star, 0.5 * (sigma_star + sigma_star.T))

    # the dual objective, in a form free of cancellation between terms of
    # order gamma
    value = _quadratic_moment_risk(loss, mu_hat, sigma) + gamma * eps**2 + float(numer @ inv)
    primal = _quadratic_moment_risk(loss, extremal.mu, extremal.sigma)
    # the mismatch is measured against the sizes of the primal's terms, so
    # that the check keeps its meaning at every scale of the data
    mu_abs = np.abs(extremal.mu)
    terms = np.sum(np.abs(loss.Q * extremal.sigma)) + mu_abs @ np.abs(loss.Q) @ mu_abs
    terms += 2.0 * np.abs(loss.q) @ mu_abs
    if interior and abs(value - primal) > 1e-7 * terms:
        raise NumericalFailure(
            f"primal-dual mismatch: dual {value!r} vs primal {primal!r}"
        )
    return GelbrichRiskResult(value, extremal, float(gamma), interior, primal, delta)


def support_V(q, Qm, center: MomentPair, eps: float) -> float:
    """Support function of the lifted moment set in (mu, second moment).

    sup over the hull of q' mu + Tr[Qm M] with M = Sigma + mu mu' equals the
    worst-case quadratic risk with pieces Qm and linear coefficient q/2.
    """
    return gelbrich_risk_quadratic(QuadraticLoss(Qm, 0.5 * as_vector(q, "q")), center, eps).value


def wc_risk_elliptical_quadratic(loss: QuadraticLoss, nominal: EllipticalSpec, eps: float):
    """Worst-case quadratic risk over elliptical distributions in the ball.

    The value depends on the nominal distribution only through its moments;
    the extremal member keeps the nominal generator.
    """
    result = gelbrich_risk_quadratic(loss, nominal.moments, eps)
    extremal = EllipticalSpec(nominal.generator, result.extremal, nominal.nu)
    return result.value, extremal
