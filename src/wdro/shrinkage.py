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
(in gamma its slope is infinite there), by ``monotone_root`` from a
closed-form start inside two closed-form bounds on the root; ``_eq51``, the
residual in gamma, is left to certify the answer independently of the
solver.
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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class ShrinkageResult:
    """Robust mean and precision estimate with the spectral map that built it."""

    mean: np.ndarray
    precision: np.ndarray
    gamma_star: float
    eigen_map: np.ndarray  # (m, 2): rows of (sample eigenvalue, shrunk precision eigenvalue)


def sample_moments(samples) -> MomentPair:
    """Sample mean and biased (1/N) covariance of a sample set.

    The samples are checked here, once; the covariance is symmetrized, so
    ``MomentPair`` only decomposes it and runs its PSD check.
    """
    x = as_samples(samples, "samples")
    n = x.shape[0]
    if n == 0:
        raise EmptySample("need at least one sample")
    mean = x.sum(axis=0) / n
    centered = x - mean
    sigma = centered.T @ centered / n
    return MomentPair._of_samples(mean, 0.5 * (sigma + sigma.T))


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
    finite, positive radius eps whose square is a positive finite float
    (ValueError naming eps otherwise).

    The mean estimate is the sample mean.  The precision estimate is
    positive definite even when the covariance is singular.  The returned
    gamma solves the scalar shrinkage equation to a few ulps, at any scale
    of the covariance: its square root is found from one evaluation at the
    right end q_R of a closed-form bound, then Newton steps inside a bracket
    from two more bounds (see the comments in the body), in about four and
    a half evaluations.
    """
    eps = radius(eps, positive=True)
    e2 = eps * eps
    if not 0.0 < e2 < math.inf:
        raise ValueError(f"eps={eps!r} is out of range: eps^2 = {e2!r} must be a positive finite float")
    m = moments.dim
    dec = moments.spectrum
    lam = dec.values.clip(0.0)
    # snap numerically-zero eigenvalues to exact zero: sqrt(4*lam*gamma) has
    # infinite slope there and would otherwise amplify eigensolver noise
    lam[lam < 1e-12 * float(lam[0])] = 0.0

    # Solve in q = sqrt(gamma): near 0 the residual grows like
    # q sum sqrt(lam_i), linearly, where in gamma its slope is infinite.
    # With a = lam q and s = hypot(a, 2 sqrt(lam)), h(lam gamma) = 2a / (s + a),
    # of slope 8 lam^2 / (s (s + a)^2) in q.  Zero eigenvalues add nothing
    # and are left out, so s > 0; the values are descending, so the positive
    # ones come first.
    pos = lam[: np.count_nonzero(lam)]
    root_lam = np.sqrt(pos)
    two_root_lam, eight_lam2 = 2.0 * root_lam, 8.0 * pos * pos

    def residual(q: float) -> tuple[float, float]:
        a = pos * q
        s = np.hypot(a, two_root_lam)
        r = 1.0 / (s + a)
        return e2 * q * q - m + 2.0 * float(a @ r), 2.0 * e2 * q + float(eight_lam2 @ (r * r / s))

    # The bracket ends come from closed-form bounds on the residual F, each
    # taken where the bound is m / 2 away from 0, a sign rounding cannot
    # flip, so neither end is evaluated.  Left: h(u) <= sqrt(u), so
    # F <= P(q) = e2 q^2 + b q - m with b = sum sqrt(lam_i); P is convex with
    # P(0) = -m, so at half its positive root q_L, P <= -m / 2.  Right:
    # F >= e2 q^2 - m, which is m / 2 at q^2 = 1.5 m / e2; and
    # h(u) >= 1 - 1/u, so with k positive eigenvalues and c = sum 1 / lam_i,
    # F >= e2 q^2 - (m - k) - c / q^2, which is m / 2 at the positive root x
    # of e2 x^2 - (1.5 m - k) x - c = 0.  That second end is the close one
    # when every lam_i gamma* is large, where h saturates and the first is
    # loose.  The search starts at q_R, where the same bound is 0 (the root
    # of e2 x^2 - (m - k) x - c = 0): F(q_R) >= 0 up to rounding, q_R is
    # close to the root when h saturates, and its value picks the part of
    # the bracket that holds the root.
    b = float(root_lam.sum())
    q_low = 2.0 * m / (b + math.sqrt(b * b + 4.0 * e2 * m))
    c, free = float((1.0 / pos).sum()), m - pos.size

    def positive_root(a: float) -> float:  # of e2 x^2 - a x - c = 0
        return (a + math.sqrt(a * a + 4.0 * e2 * c)) / (2.0 * e2)

    lo, hi = 0.5 * q_low, math.sqrt(min(1.5 * m / e2, positive_root(free + 0.5 * m)))
    start = min(math.sqrt(positive_root(free)), hi)
    at_start = residual(start)
    if at_start[0] > 0.0:
        q = monotone_root(residual, lo, start, f_lo=(-math.inf, math.nan), f_hi=at_start)
    else:
        q = monotone_root(residual, start, hi, f_lo=at_start, f_hi=(math.inf, math.nan))
    gamma = q * q

    x = _eq50_eigenvalue(gamma, lam)
    precision = dec.vectors @ (x[:, None] * dec.vectors.T)
    precision = 0.5 * (precision + precision.T)
    return ShrinkageResult(
        mean=moments.mu.copy(),
        precision=precision,
        gamma_star=float(gamma),
        eigen_map=np.array((lam, x)).T,
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
