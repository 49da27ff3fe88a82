"""Deterministic scalar solvers and dense symmetric linear algebra.

Everything downstream (worst-case risks, shrinkage maps, Frank-Wolfe
directions, the trust-region steps of robust training) reduces to the
primitives in this module: a safeguarded Newton root for monotone scalar
equations and the secular equations of ball constraints, and symmetric
eigendecompositions.  All routines are deterministic: identical inputs and
tolerances produce identical outputs.  A covariance is decomposed once, by
the ``psd_eig`` check of ``MomentPair`` or ``JointMoments``, which keep it as
``spectrum``: square roots, lifts off singularity, densities and the
shrinkage map read it from there; a ``QuadraticLoss`` keeps that of its Q.
Every quadratic worst case (type 2, Gelbrich, the Frank-Wolfe direction)
takes its multiplier from one spectral step, ``quadratic_multiplier``.

Every scalar root runs in ``monotone_root``, over a bracket whose end signs
follow from a bound with a margin that rounding cannot erase, never from a
search for a sign change.  A caller that has already evaluated an end hands
that value over, so no point is evaluated twice:
- ``secular_root`` starts from x0 = max(0, max poles), whose value decided
  that a root is needed, and a right end where phi <= radius^2 / 4;
- ``shrinkage.wasserstein_shrinkage`` solves in q = sqrt(gamma), between
  closed-form bounds on either side of the root;
- the Frank-Wolfe line search in ``mmse`` starts from the slopes at t = 0
  (the gap) and t = 1 (the test for a full step), both already computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _validation
from .errors import MaxIterExceeded, NoBracket, NotPSD, NumericalFailure

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "monotone_root",
    "secular_root",
    "quadratic_multiplier",
    "SpectralDecomposition",
    "sym_eig",
    "psd_eig",
    "lift_singular",
]

# Root searches stop when the Newton step or the bracket is this many ulps
# of x; the step cap lets bisection shrink any finite bracket to that width.
_ROOT_ULPS = 4.0 * float(np.finfo(float).eps)
_MAX_ROOT_STEPS = 2200


@dataclass(frozen=True)
class Tolerance:
    """The relative accuracy a solver stops at.

    rel_tol bounds the Frank-Wolfe gap (relative to the trace of the
    nominal), the training gap (10 rel_tol relative to the objective) and
    the transport plan's marginal error.  Input checks and eigensolver
    guards use fixed relative thresholds of their own and do not read it.
    """

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and nonnegative, got {self.rel_tol}")


DEFAULT_TOL = Tolerance()


def monotone_root(
    f: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
    f_lo: tuple[float, float] | None = None,
    f_hi: tuple[float, float] | None = None,
) -> float:
    """Root of a function that changes sign once on [lo, hi].

    ``f(x)`` returns the value and the slope at x.  A caller that has
    already evaluated an end passes that pair as ``f_lo`` or ``f_hi``, and
    the end is not evaluated again.  The search starts at the end with the
    smaller |f|.  Each step is the Newton step from the last point evaluated
    when it lands inside the bracket and is at most half the step before
    last, and a bisection otherwise.  The search stops on an exact zero, or
    when the Newton step or the bracket is a few ulps of x: no absolute
    tolerance enters, so the root comes out to the same relative accuracy at
    every scale.  An infinite value (a pole at an end) counts by its sign.
    Returns a Python float.  Raises NoBracket when f(lo) and f(hi) do not
    differ in sign.
    """
    lo, hi = float(lo), float(hi)
    flo, slo = f(lo) if f_lo is None else f_lo
    fhi, shi = f(hi) if f_hi is None else f_hi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.isnan(flo) or math.isnan(fhi) or (flo < 0.0) == (fhi < 0.0):
        raise NoBracket(f"no sign change in [{lo!r}, {hi!r}] (f(lo)={flo!r}, f(hi)={fhi!r})")
    lo_negative = flo < 0.0
    x, fx, sx = (lo, flo, slo) if abs(flo) <= abs(fhi) else (hi, fhi, shi)
    step = before = hi - lo
    for _ in range(_MAX_ROOT_STEPS):
        t = math.nan
        if math.isfinite(fx) and math.isfinite(sx) and sx != 0.0:
            t = float(x - fx / sx)
            if abs(t - x) <= _ROOT_ULPS * abs(x):
                return t
        if not (lo < t < hi and abs(t - x) <= 0.5 * abs(before)):
            t = lo + 0.5 * (hi - lo)
        before, step = step, t - x
        x = t
        fx, sx = f(x)
        if fx == 0.0:
            return x
        if math.isnan(fx):
            raise NumericalFailure(f"root search met a NaN at x={x!r}")
        if (fx < 0.0) == lo_negative:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if hi - lo <= _ROOT_ULPS * max(abs(lo), abs(hi)):
            return lo if abs(flo) <= abs(fhi) else hi
    raise MaxIterExceeded("root search did not converge")


def secular_root(numer, poles, radius: float) -> float:
    """Multiplier of a ball constraint: the least x >= x0 with phi(x) <= radius^2.

    Here phi(x) = sum_k numer_k / (x - poles_k)^2 with numer >= 0, and
    x0 = max(0, max poles).  phi decreases on (x0, inf), so the answer is
    x0 itself when phi(x0) <= radius^2 (callers compare with x0), and the
    root of phi = radius^2 otherwise.  The root is found by ``monotone_root``
    on 1/sqrt(phi) - 1/radius, which is nearly linear in x (More and
    Sorensen, *Computing a trust region step*, 1983), over
    [x0, x0 + 2 sqrt(sum numer) / radius]: phi <= radius^2 / 4 at the right
    end, a sign that rounding cannot erase.  The search starts from the
    value at x0, which decided whether it runs, so x0 is evaluated once.
    Only x0 can sit on a pole, where phi is infinite and 1/sqrt(phi) is 0,
    so only its evaluation runs under ``np.errstate``; every later point
    lies strictly right of every pole.  phi and its slope share the terms
    numer / (x - poles) and 1 / (x - poles), summed by dot products.
    """
    numer = np.asarray(numer, dtype=float)
    poles = np.asarray(poles, dtype=float)
    x0 = max(0.0, float(poles.max()))
    keep = numer > 0.0
    n, p = numer[keep], poles[keep]
    if n.size == 0:
        return x0

    def f(x: float) -> tuple[float, float]:
        inv = 1.0 / (x - p)
        t = n * inv
        phi = t @ inv
        root = phi**0.5
        return float(1.0 / root - 1.0 / radius), float((t * inv) @ inv / (phi * root))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        at_x0 = f(x0)
    if at_x0[0] >= 0.0:
        return x0
    return monotone_root(f, x0, x0 + 2.0 * math.sqrt(float(n.sum())) / radius, f_lo=at_x0)


def quadratic_multiplier(lam: np.ndarray, numer: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """Multiplier gamma of a quadratic worst case in a ball of radius eps, and
    inv = 1 / (gamma - lam): the ``secular_root`` for weights ``numer`` on the
    eigenvalues ``lam`` (descending).  The top eigenspace, within 1e-12 max
    |lam| of x0 = max(0, lam_max), loses its weight when that is at most
    1e-13 of the total, so rounding cannot force an interior root; when
    gamma = x0, inv is 0 on each top direction without weight.
    """
    x0 = max(0.0, float(lam[0]))
    top = x0 - lam <= 1e-12 * float(np.abs(lam).max())
    if numer[top].sum() <= 1e-13 * numer.sum():
        numer = np.where(top, 0.0, numer)
    gamma = secular_root(numer, lam, eps)
    dead = top & (numer == 0.0) & (gamma == x0)
    return gamma, np.divide(1.0, gamma - lam, out=np.zeros_like(lam), where=~dead)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray) -> "SpectralDecomposition":
        """Decomposition of a symmetric matrix by LAPACK: eigenvalues descending, each
        eigenvector's largest-magnitude entry positive (first index on ties)."""
        w, v = np.linalg.eigh(s)
        order = np.argsort(w)[::-1]
        w = w[order]
        v = v[:, order]
        flip = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0
        v[:, flip] = -v[:, flip]
        return cls(values=w, vectors=v)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T

    def sqrt(self) -> np.ndarray:
        """Symmetric square root, negative eigenvalues clipped to zero."""
        r = (self.vectors * np.sqrt(np.clip(self.values, 0.0, None))) @ self.vectors.T
        return 0.5 * (r + r.T)


def sym_eig(a) -> SpectralDecomposition:
    """``SpectralDecomposition.of`` a matrix, symmetrized after a symmetry check."""
    return SpectralDecomposition.of(_validation.check_symmetric(a))


def psd_eig(a, rel: float = 1e-9, name: str = "A") -> tuple[np.ndarray, SpectralDecomposition]:
    """A symmetrized PSD matrix and its decomposition, from one ``eigh``.  Raises
    NotSymmetric when |A - A'| exceeds rel times the largest entry, NotPSD when
    an eigenvalue is below -rel times the largest |eigenvalue|."""
    s = _validation.check_symmetric(a, rel, name)
    dec = SpectralDecomposition.of(s)
    w, scale = dec.values, float(np.abs(dec.values).max(initial=0.0))
    if w.min(initial=0.0) < -rel * scale:
        raise NotPSD(f"{name} has eigenvalue {w.min():.3e} below -{rel} * {scale:.3e}")
    return s, dec


def lift_singular(cov: np.ndarray, spectrum: SpectralDecomposition) -> tuple[np.ndarray, float]:
    """A covariance lifted off singularity, and the lift.

    When the least eigenvalue in ``spectrum`` (the stored decomposition of
    ``cov``) is at most 1e-12 times the largest, returns ``cov + lift I`` with
    lift = 1e-10 Tr[cov] / m (1e-12 for a zero matrix); else ``cov``, 0.
    """
    m = cov.shape[0]
    w = spectrum.values
    if w.min() > 1e-12 * w.max():
        return cov, 0.0
    lift = 1e-10 * float(np.trace(cov)) / m
    if lift <= 0.0:
        lift = 1e-12
    return cov + lift * np.eye(m), lift
