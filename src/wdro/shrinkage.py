"""Wasserstein shrinkage estimation of means and precision matrices.

The robust maximum-likelihood problem over a ball of moment pairs keeps
the sample mean and shrinks the precision matrix spectrally: with sample
covariance eigenvalues lam_i, the precision shares the sample
eigenvectors and has eigenvalues

    x_i = gamma * (1 - (sqrt(lam_i^2 gamma^2 + 4 lam_i gamma) - lam_i gamma) / 2),

where gamma > 0 is the unique positive root of

    (eps^2 - sum(lam_i)/2) gamma - m + sum(sqrt(lam_i^2 gamma^2 + 4 lam_i gamma)) / 2 = 0.

Rank-deficient sample covariances are allowed: zero eigenvalues simply
map to x_i = gamma, which is the whole point of the estimator.

The root is found in q = sqrt(gamma), where the equation is linear near 0
(in gamma its slope is infinite there), by ``monotone_root`` between two
closed-form bounds on the root; ``_eq51``, the residual in gamma, is left
to certify the answer independently of the solver.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._validation import ParamsMixin, as_samples, radius
from .errors import EmptySample
from .numerics import monotone_root
from .transport import MomentPair

__all__ = [
    "ShrinkageResult",
    "sample_moments",
    "wasserstein_shrinkage",
    "shrinkage_from_samples",
    "WassersteinShrinkage",
]


@dataclasses.dataclass(frozen=True, eq=False)
class ShrinkageResult:
    """Robust mean and precision estimate with the spectral map that built it."""

    mean: np.ndarray
    precision: np.ndarray
    gamma_star: float
    eigen_map: np.ndarray  # (m, 2): rows of (sample eigenvalue, shrunk precision eigenvalue)


def sample_moments(samples) -> MomentPair:
    """Sample mean and biased (1/N) covariance of a sample set."""
    x = as_samples(samples, "samples")
    if x.shape[0] == 0:
        raise EmptySample("need at least one sample")
    mean = x.mean(axis=0)
    centered = x - mean
    sigma = centered.T @ centered / x.shape[0]
    return MomentPair(mean, 0.5 * (sigma + sigma.T))


def _eq51(gamma: float, lam: np.ndarray, eps: float, m: int) -> float:
    """Residual of the shrinkage equation in gamma.

    It is eps^2 gamma - m + sum h(lam gamma) with
    h(u) = (sqrt(u^2 + 4u) - u) / 2 = 2u / (sqrt(u^2 + 4u) + u), written
    without the cancellation of the first form.  The solver works in
    sqrt(gamma) instead, so this serves as an independent certificate.
    """
    u = lam * gamma
    s = np.sqrt(u**2 + 4.0 * u)
    return eps**2 * gamma - m + float(np.sum(2.0 * u / (s + u + (u == 0.0))))


def _eq50_eigenvalue(gamma: float, lam: np.ndarray) -> np.ndarray:
    # stable form of gamma * (1 - (sqrt(u^2 + 4u) - u) / 2) with u = lam * gamma
    u = lam * gamma
    s = np.sqrt(u**2 + 4.0 * u)
    return gamma * (1.0 - 2.0 * u / (s + u + (u == 0.0)))


def wasserstein_shrinkage(moments: MomentPair, eps: float) -> ShrinkageResult:
    """Robust maximum-likelihood mean and precision for a moment pair, at a
    finite, positive radius eps.

    The mean estimate is the sample mean.  The precision estimate is
    positive definite even when the covariance is singular.  The returned
    gamma solves the scalar shrinkage equation to a few ulps, at any scale
    of the covariance: its square root is found between a left end from
    h(u) <= sqrt(u) and a right end from h(u) >= 1 - 1/u (see the comments
    in the body), in about seven evaluations.
    """
    eps = radius(eps, positive=True)
    m = moments.dim
    dec = moments.spectrum
    lam = np.clip(dec.values, 0.0, None)
    # snap numerically-zero eigenvalues to exact zero: sqrt(4*lam*gamma) has
    # infinite slope there and would otherwise amplify eigensolver noise
    lam[lam < 1e-12 * float(lam.max(initial=0.0))] = 0.0

    # Solve in q = sqrt(gamma): near 0 the residual grows like
    # q sum sqrt(lam_i), linearly, where in gamma its slope is infinite.
    # With a = lam q and s = sqrt(a^2 + 4 lam), h(lam gamma) = 2a / (s + a),
    # of slope 8 lam^2 / (s (s + a)^2) in q.  Zero eigenvalues add nothing
    # and are left out, so s > 0.
    pos = lam[lam > 0.0]
    four_lam, eight_lam2 = 4.0 * pos, 8.0 * pos * pos
    e2 = eps * eps

    def residual(q: float) -> tuple[float, float]:
        a = pos * q
        s = np.sqrt(a * a + four_lam)
        r = 1.0 / (s + a)
        return e2 * q * q - m + 2.0 * float(a @ r), 2.0 * e2 * q + float(eight_lam2 @ (r * r / s))

    # Both ends come from closed-form bounds on the residual F, each taken
    # where the bound is m / 2 away from 0, a sign rounding cannot flip.
    # Left: h(u) <= sqrt(u), so F <= P(q) = e2 q^2 + b q - m with
    # b = sum sqrt(lam_i); P is convex with P(0) = -m, so at half its
    # positive root q_L, P <= -m / 2.  Right: F >= e2 q^2 - m, which is m / 2
    # at q^2 = 1.5 m / e2; and h(u) >= 1 - 1/u, so with k positive
    # eigenvalues and c = sum 1 / lam_i, F >= e2 q^2 - (m - k) - c / q^2,
    # which is m / 2 at the positive root x of
    # e2 x^2 - (1.5 m - k) x - c = 0.  That second end is the close one when
    # every lam_i gamma* is large, where h saturates and the first is loose.
    b = float(np.sqrt(pos).sum())
    q_low = 2.0 * m / (b + math.sqrt(b * b + 4.0 * e2 * m))
    c, rest = float((1.0 / pos).sum()), 1.5 * m - pos.size
    x_up = (rest + math.sqrt(rest * rest + 4.0 * e2 * c)) / (2.0 * e2)
    q = monotone_root(residual, 0.5 * q_low, math.sqrt(min(1.5 * m / e2, x_up)))
    gamma = q * q

    x = _eq50_eigenvalue(gamma, lam)
    precision = dec.vectors @ (x[:, None] * dec.vectors.T)
    precision = 0.5 * (precision + precision.T)
    return ShrinkageResult(
        mean=moments.mu.copy(),
        precision=precision,
        gamma_star=float(gamma),
        eigen_map=np.column_stack([lam, x]),
    )


def shrinkage_from_samples(samples, eps: float) -> ShrinkageResult:
    """Convenience composition of sample_moments and wasserstein_shrinkage."""
    return wasserstein_shrinkage(sample_moments(samples), eps)


class WassersteinShrinkage(ParamsMixin):
    """Estimator-style wrapper: fit(X) exposes location_ and precision_."""

    _PARAMS = ("eps",)

    def __init__(self, eps: float = 0.1):
        self.eps = eps

    def fit(self, X, y=None) -> "WassersteinShrinkage":
        result = shrinkage_from_samples(X, self.eps)
        self.location_ = result.mean
        self.precision_ = result.precision
        self.gamma_ = result.gamma_star
        self.eigen_map_ = result.eigen_map
        return self
