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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._validation import as_samples
from .errors import EmptySample
from .numerics import DEFAULT_TOL, Tolerance, monotone_root, sym_eig
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


def _eq51(gamma: float, lam: np.ndarray, eps: float, m: int) -> tuple[float, float]:
    """Residual of the shrinkage equation and its slope in gamma.

    The residual is eps^2 gamma - m + sum h(lam gamma) with
    h(u) = (sqrt(u^2 + 4u) - u) / 2 = 2u / (sqrt(u^2 + 4u) + u), written
    without the cancellation of the first form; h'(u) = 2 / (s (u + 2 + s))
    with s = sqrt(u^2 + 4u), infinite at u = 0.
    """
    u = lam * gamma
    s = np.sqrt(u**2 + 4.0 * u)
    value = eps**2 * gamma - m + float(np.sum(2.0 * u / (s + u + (u == 0.0))))
    with np.errstate(divide="ignore"):
        slope = np.divide(2.0 * lam, s * (u + 2.0 + s), out=np.zeros_like(lam), where=lam > 0.0)
    return value, eps**2 + float(slope.sum())


def _eq50_eigenvalue(gamma: float, lam: np.ndarray) -> np.ndarray:
    # stable form of gamma * (1 - (sqrt(u^2 + 4u) - u) / 2) with u = lam * gamma
    u = lam * gamma
    s = np.sqrt(u**2 + 4.0 * u)
    return gamma * (1.0 - 2.0 * u / (s + u + (u == 0.0)))


def wasserstein_shrinkage(
    moments: MomentPair, eps: float, tol: Tolerance = DEFAULT_TOL
) -> ShrinkageResult:
    """Robust maximum-likelihood mean and precision for a moment pair.

    The mean estimate is the sample mean.  The precision estimate is
    positive definite even when the covariance is singular.  The returned
    gamma solves the scalar shrinkage equation to a few ulps, at any scale
    of the covariance.
    """
    if not eps > 0:
        raise ValueError("eps must be positive; invert the covariance directly for eps = 0")
    m = moments.dim
    dec = sym_eig(moments.sigma, tol=tol)
    lam = np.clip(dec.values, 0.0, None)
    # snap numerically-zero eigenvalues to exact zero: sqrt(4*lam*gamma) has
    # infinite slope there and would otherwise amplify eigensolver noise
    lam[lam < 1e-12 * float(lam.max(initial=0.0))] = 0.0

    # the residual is -m at 0 and at least eps^2 gamma - m, so the root lies
    # in [0, m / eps^2]; the bracket is twice that, so that rounding cannot
    # erase the sign at its right end
    gamma = monotone_root(lambda g: _eq51(g, lam, eps, m), 0.0, 2.0 * m / eps**2)

    x = _eq50_eigenvalue(gamma, lam)
    precision = dec.vectors @ (x[:, None] * dec.vectors.T)
    precision = 0.5 * (precision + precision.T)
    return ShrinkageResult(
        mean=moments.mu.copy(),
        precision=precision,
        gamma_star=float(gamma),
        eigen_map=np.column_stack([lam, x]),
    )


def shrinkage_from_samples(samples, eps: float, tol: Tolerance = DEFAULT_TOL) -> ShrinkageResult:
    """Convenience composition of sample_moments and wasserstein_shrinkage."""
    return wasserstein_shrinkage(sample_moments(samples), eps, tol)


class WassersteinShrinkage:
    """Estimator-style wrapper: fit(X) exposes location_ and precision_."""

    def __init__(self, eps: float = 0.1):
        self.eps = eps

    def get_params(self, deep: bool = True) -> dict:
        return {"eps": self.eps}

    def set_params(self, **params) -> "WassersteinShrinkage":
        for key, value in params.items():
            if key not in ("eps",):
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X, y=None) -> "WassersteinShrinkage":
        result = shrinkage_from_samples(X, self.eps)
        self.location_ = result.mean
        self.precision_ = result.precision
        self.gamma_ = result.gamma_star
        self.eigen_map_ = result.eigen_map
        return self
