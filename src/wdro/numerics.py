"""Deterministic scalar solvers and dense symmetric linear algebra.

Everything downstream (worst-case risks, shrinkage maps, Frank-Wolfe
directions, the trust-region steps of robust training) reduces to the
primitives in this module: a safeguarded Newton root for monotone scalar
equations and the secular equations of ball constraints, and symmetric
eigendecompositions.  All routines are deterministic: identical inputs and
tolerances produce identical outputs.  A covariance is decomposed once, by
the ``psd_eig`` check of ``MomentPair`` or ``JointMoments`` (or, for a
sample covariance that is symmetric by construction, by ``psd_spectrum``
alone), which keep it as ``spectrum``: square roots, lifts off singularity,
densities and the shrinkage map read it from there; a ``QuadraticLoss``
keeps that of its Q.  Every quadratic worst case (type 2, Gelbrich, the
Frank-Wolfe direction) takes its multiplier from one spectral step,
``quadratic_multiplier``.  The matrices are small (3 to 60), so each
kernel keeps its count of numpy calls low: ``SpectralDecomposition.of``
reverses LAPACK's ascending order by slicing, and the roots evaluate their
functions with one or two dot products and scalar arithmetic.

Every scalar root runs in ``monotone_root``, over a bracket whose end signs
follow from a bound with a margin that rounding cannot erase, never from a
search for a sign change.  A caller that has already evaluated an end hands
that value over, and an end whose sign alone is known is handed over as
+-inf, so no point is evaluated twice or for its sign.  Each search takes
Newton steps, bisecting where one would leave the bracket or not halve the
step before last, and stops on a step of a few ulps, on a bracket of a few
ulps, or once a Newton step no longer shrinks after one of sqrt(eps) |x|:
- ``secular_root`` starts from x0 = max(0, max poles), whose value decided
  that a root is needed; its right end, where phi <= radius^2 / 4, is never
  evaluated.  It leaves out the noise stop and bisects to a few ulps:
  training's later stages read the multiplier's last bits;
- ``shrinkage.wasserstein_shrinkage`` solves in q = sqrt(gamma) from one
  evaluation at the root of a closed-form lower bound, right of the root,
  inside closed-form bounds on either side that are not evaluated;
- the Frank-Wolfe line search in ``mmse`` is handed the slope at t = 0
  (the gap) and evaluates the one at t = 1 (the test for a full step); each
  evaluation is O(my) in the eigenbasis of the segment (``mmse._segment``).
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
    "psd_spectrum",
    "lift_singular",
]

# Root searches stop when the Newton step or the bracket is this many ulps
# of x; the step cap lets bisection shrink any finite bracket to that width.
_ROOT_ULPS = 4.0 * float(np.finfo(float).eps)
_MAX_ROOT_STEPS = 2200
# Once a Newton step of at most this share of x has been taken, quadratic
# convergence leaves the next one at rounding level: a step that does not
# shrink then is rounding noise in f, and the search stops.
_NOISE_STEP = math.sqrt(float(np.finfo(float).eps))


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
    *,
    noise_stop: bool = True,
) -> float:
    """Root of a function that changes sign once on [lo, hi].

    ``f(x)`` returns the value and the slope at x.  A caller that has
    already evaluated an end passes that pair as ``f_lo`` or ``f_hi``, and
    the end is not evaluated again.  The search starts at the end with the
    smaller |f|.  Each step is the Newton step from the last point evaluated
    when it lands inside the bracket and is at most half the step before
    last, and a bisection otherwise.  The search stops on an exact zero,
    when the Newton step or the bracket is a few ulps of x, or when a Newton
    step no longer shrinks after one of at most sqrt(eps) |x| was taken:
    there quadratic convergence has left only the rounding of f, which
    bisection would chase down to a few ulps.  ``noise_stop=False`` drops
    that last rule, for a caller whose users read the root's last bits (see
    ``secular_root``).  No absolute tolerance enters, so the root comes out
    to the same relative accuracy at every scale.  An infinite value (a pole
    at an end, or an end whose sign alone is known) counts by its sign.
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
    newton = math.inf  # the length of the last Newton step taken
    for _ in range(_MAX_ROOT_STEPS):
        t = math.nan
        if math.isfinite(fx) and math.isfinite(sx) and sx != 0.0:
            t = float(x - fx / sx)
            size = abs(t - x)
            if size <= _ROOT_ULPS * abs(x):
                return t
            if noise_stop and size >= newton and newton <= _NOISE_STEP * abs(x):
                return x
        if lo < t < hi and abs(t - x) <= 0.5 * abs(before):
            newton = abs(t - x)
        else:
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


def secular_root(numer: np.ndarray, poles: np.ndarray, radius: float) -> float:
    """Multiplier of a ball constraint: the least x >= x0 with phi(x) <= radius^2.

    Here phi(x) = sum_k numer_k / (x - poles_k)^2 with numer >= 0, and
    x0 = max(0, max poles).  phi decreases on (x0, inf), so the answer is
    x0 itself when phi(x0) <= radius^2 (callers compare with x0), and the
    root of phi = radius^2 otherwise.  The root is found by ``monotone_root``
    on 1/sqrt(phi) - 1/radius, which is nearly linear in x (More and
    Sorensen, *Computing a trust region step*, 1983), over
    [x0, x0 + 2 sqrt(sum numer) / radius]: phi <= radius^2 / 4 at the right
    end, a sign that rounding cannot erase, so that end is handed over as
    +inf and never evaluated (at least 1/radius, its value could never be
    the smaller one the search starts from).  The search starts from the
    value at x0, which decided whether it runs, so x0 is evaluated once.
    Weights of zero are dropped first.  When x0 sits on a pole of positive
    weight, phi(x0) is infinite and that value, -1/radius with an undefined
    slope, is written down rather than computed; every later point lies
    strictly right of every pole.  A radius so large or so small that the
    bracket is empty or unbounded in floating point raises NoBracket naming
    it.  phi and its slope share the terms numer / (x - poles) and
    1 / (x - poles), summed by dot products; the rest is scalar arithmetic
    on Python floats.  ``numer`` and ``poles`` are float arrays.  The
    search bisects its bracket down to a few ulps (``noise_stop`` off):
    robust training takes a trust-region step from each root, and its
    piecewise-linear finish turned out to depend on the multiplier's last
    bits, so a root that stopped in the rounding noise instead could end a
    training run without its certificate.
    """
    top = float(poles.max())
    x0 = max(0.0, top)
    if not numer.all():
        keep = numer > 0.0
        numer, poles = numer[keep], poles[keep]
        if numer.size == 0:
            return x0
        top = float(poles.max())
    inv_radius = 1.0 / radius

    def f(x: float) -> tuple[float, float]:
        inv = 1.0 / (x - poles)
        t = numer * inv
        phi = float(t @ inv)
        if phi == 0.0 or phi == math.inf:  # underflow or a pole: by its sign
            return (math.inf if phi == 0.0 else -inv_radius), math.nan
        root = phi**0.5
        den = phi * root
        return 1.0 / root - inv_radius, float((t * inv) @ inv) / den if den > 0.0 else math.inf

    at_x0 = (-inv_radius, math.nan) if top == x0 else f(x0)
    if at_x0[0] >= 0.0:
        return x0
    hi = x0 + 2.0 * math.sqrt(float(numer.sum())) / radius
    if not hi < math.inf or hi == x0:
        raise NoBracket(
            f"the multiplier of radius eps={radius!r} has no bracket of finite, positive width "
            f"in floating point: [{x0!r}, {hi!r}]"
        )
    return monotone_root(f, x0, hi, f_lo=at_x0, f_hi=(math.inf, math.nan), noise_stop=False)


def quadratic_multiplier(lam: np.ndarray, numer: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """Multiplier gamma of a quadratic worst case in a ball of radius eps, and
    inv = 1 / (gamma - lam): the ``secular_root`` for weights ``numer`` on the
    eigenvalues ``lam`` (descending).  The top eigenspace, within 1e-12 max
    |lam| of x0 = max(0, lam_max), loses its weight when that is at most
    1e-13 of the total, so rounding cannot force an interior root; when
    gamma = x0, inv is 0 on each top direction without weight.
    """
    x0 = max(0.0, float(lam[0]))
    top = x0 - lam <= 1e-12 * max(abs(float(lam[0])), abs(float(lam[-1])))
    if numer[top].sum() <= 1e-13 * numer.sum():
        numer = np.where(top, 0.0, numer)
    gamma = secular_root(numer, lam, eps)
    if gamma > x0:
        return gamma, 1.0 / (gamma - lam)
    dead = top & (numer == 0.0)
    return gamma, np.divide(1.0, gamma - lam, out=np.zeros_like(lam), where=~dead)


@dataclass(frozen=True, slots=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, s: np.ndarray) -> "SpectralDecomposition":
        """Decomposition of a symmetric matrix by LAPACK: eigenvalues descending, each
        eigenvector's largest-magnitude entry positive (first index on ties).

        ``eigh`` returns the eigenvalues ascending, so both arrays are
        reversed by slicing, and one product fixes the signs.  It writes the
        vectors in Fortran order: products with a matrix of another layout
        round differently in their last bits."""
        w, v = np.linalg.eigh(s)
        v = v[:, ::-1]
        top = v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])]
        return cls(values=w[::-1], vectors=np.multiply(v, np.copysign(1.0, top), order="F"))

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
    return s, psd_spectrum(s, rel, name)


def psd_spectrum(s: np.ndarray, rel: float = 1e-9, name: str = "A") -> SpectralDecomposition:
    """The decomposition of a finite matrix that is symmetric by construction,
    after the PSD check of ``psd_eig`` (which adds the symmetry check)."""
    dec = SpectralDecomposition.of(s)
    w = dec.values
    if w.size and w[-1] < 0.0:
        scale = max(float(w[0]), -float(w[-1]))  # the largest |eigenvalue|
        if w[-1] < -rel * scale:
            raise NotPSD(f"{name} has eigenvalue {w[-1]:.3e} below -{rel} * {scale:.3e}")
    return dec


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
