"""Deterministic scalar solvers and dense symmetric linear algebra.

Everything downstream (worst-case risks, shrinkage maps, Frank-Wolfe
directions) reduces to the primitives in this module: a safeguarded Newton
root for monotone scalar equations and the secular equations of ball
constraints, one-dimensional convex minimization, a subgradient descent
harness, and symmetric eigendecompositions.  All routines are
deterministic: identical inputs and tolerances produce identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._validation import as_vector, check_symmetric
from .errors import MaxIterExceeded, NoBracket, NotPSD, NumericalFailure, Unbounded

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "monotone_root",
    "secular_root",
    "minimize_scalar_convex",
    "SubgradientResult",
    "subgradient_minimize",
    "SpectralDecomposition",
    "sym_eig",
    "psd_sqrt",
]

# Root searches stop when the Newton step or the bracket is this many ulps
# of x; the step cap lets bisection shrink any finite bracket to that width.
_ROOT_ULPS = 4.0 * np.finfo(float).eps
_MAX_ROOT_STEPS = 2200
# Scalar minimizers report Unbounded past this magnitude.
_UNBOUNDED_HORIZON = 1e18


@dataclass(frozen=True)
class Tolerance:
    """Shared tolerance bundle.

    abs_tol and rel_tol control residual/width stopping rules; max_iter caps
    every iterative loop.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


DEFAULT_TOL = Tolerance()


def monotone_root(f: Callable[[float], tuple[float, float]], lo: float, hi: float) -> float:
    """Root of a function that changes sign once on [lo, hi].

    ``f(x)`` returns the value and the slope at x.  Each step is the Newton
    step from the last point evaluated when it lands inside the bracket and
    is at most half the step before last, and a bisection otherwise.  The
    search stops on an exact zero, or when the Newton step or the bracket is
    a few ulps of x: no absolute tolerance enters, so the root comes out to
    the same relative accuracy at every scale.  An infinite value (a pole at
    an end) counts by its sign.  Raises NoBracket when f(lo) and f(hi) do
    not differ in sign.
    """
    lo, hi = float(lo), float(hi)
    flo, slo = f(lo)
    fhi, shi = f(hi)
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
            t = x - fx / sx
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
    end, a sign that rounding cannot erase.
    """
    numer = np.asarray(numer, dtype=float)
    poles = np.asarray(poles, dtype=float)
    x0 = max(0.0, float(poles.max()))
    keep = numer > 0.0
    n, p = numer[keep], poles[keep]
    if n.size == 0:
        return x0

    def f(x: float) -> tuple[float, float]:
        d = x - p
        # a pole at x0 makes phi infinite there: 1/sqrt(phi) is then 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            phi = np.sum(n / d**2)
            root = np.sqrt(phi)
            return float(1.0 / root - 1.0 / radius), float(np.sum(n / d**3) / (phi * root))

    if f(x0)[0] >= 0.0:
        return x0
    return monotone_root(f, x0, x0 + 2.0 * math.sqrt(float(n.sum())) / radius)


_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section(
    g: Callable[[float], float],
    a: float,
    c: float,
    tol: Tolerance,
) -> tuple[float, float]:
    """Golden-section search on [a, c]; valid for convex (hence unimodal) g."""
    x1 = c - _INV_PHI * (c - a)
    x2 = a + _INV_PHI * (c - a)
    g1, g2 = g(x1), g(x2)
    best_x, best_g = (x1, g1) if g1 <= g2 else (x2, g2)
    for _ in range(tol.max_iter):
        if (c - a) <= tol.abs_tol + tol.rel_tol * max(1.0, abs(best_x)):
            break
        if g1 <= g2:
            c, x2, g2 = x2, x1, g1
            x1 = c - _INV_PHI * (c - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + _INV_PHI * (c - a)
            g2 = g(x2)
        if g1 <= best_g:
            best_x, best_g = x1, g1
        if g2 < best_g:
            best_x, best_g = x2, g2
    mid = 0.5 * (a + c)
    gmid = g(mid)
    if gmid < best_g:
        best_x, best_g = mid, gmid
    return best_x, best_g


def minimize_scalar_convex(
    g: Callable[[float], float],
    domain: tuple[float | None, float | None] = (None, None),
    tol: Tolerance = DEFAULT_TOL,
    x0: float | None = None,
) -> tuple[float, float]:
    """Minimize a convex scalar function over an interval.

    ``domain`` endpoints may be None for an unbounded side.  Open endpoints
    where g blows up are handled naturally: a convex function cannot decrease
    into a boundary where it tends to +inf, so interior probing suffices.
    Raises Unbounded if g keeps decreasing past the 1e18 horizon.
    Returns (argmin, value).
    """
    lo, hi = domain
    lo_f = lo is not None and np.isfinite(lo)
    hi_f = hi is not None and np.isfinite(hi)
    if lo_f and hi_f:
        if hi <= lo:
            raise ValueError("domain must have positive width")
        return _golden_section(g, float(lo), float(hi), tol)

    # Anchor an interior starting point, then expand toward unbounded sides
    # until a descent triple (a, b, c) with g(b) <= min(g(a), g(c)) appears.
    if x0 is not None:
        b = float(x0)
    elif lo_f:
        b = float(lo) + 1.0
    elif hi_f:
        b = float(hi) - 1.0
    else:
        b = 0.0
    step = 1.0
    a = max(float(lo), b - step) if lo_f else b - step
    c = min(float(hi), b + step) if hi_f else b + step
    ga, gb, gc = g(a), g(b), g(c)
    for _ in range(tol.max_iter):
        if gb <= ga and gb <= gc:
            break
        if gc < gb:
            a, ga = b, gb
            b, gb = c, gc
            step *= 2.0
            c = min(float(hi), c + step) if hi_f else c + step
            if c >= _UNBOUNDED_HORIZON:
                raise Unbounded("objective still decreasing at +1e18")
            if hi_f and c == b:
                return b, gb
            gc = g(c)
        else:
            c, gc = b, gb
            b, gb = a, ga
            step *= 2.0
            a = max(float(lo), a - step) if lo_f else a - step
            if a <= -_UNBOUNDED_HORIZON:
                raise Unbounded("objective still decreasing at -1e18")
            if lo_f and a == b:
                return b, gb
            ga = g(a)
    else:
        raise MaxIterExceeded("bracketing a scalar minimum failed within max_iter")
    return _golden_section(g, a, c, tol)


@dataclass
class SubgradientResult:
    x: np.ndarray
    value: float
    gap_estimate: float
    iterations: int


def _coordinate_polish(
    fun: Callable[[np.ndarray], float],
    x: np.ndarray,
    fx: float,
    tol: Tolerance,
    max_sweeps: int,
) -> tuple[np.ndarray, float, float, int]:
    """Cyclic exact line searches along coordinates; returns last sweep gain."""
    n = x.size
    evals = 0
    last_gain = np.inf
    line_tol = Tolerance(
        abs_tol=min(tol.abs_tol, 1e-12), rel_tol=min(tol.rel_tol, 1e-12), max_iter=tol.max_iter
    )
    for _ in range(max_sweeps):
        f_before = fx
        for i in range(n):
            xi = x[i]

            def line(t: float, i: int = i) -> float:
                z = x.copy()
                z[i] = t
                return fun(z)

            t_star, f_star = minimize_scalar_convex(line, (None, None), line_tol, x0=xi)
            evals += 1
            if f_star < fx:
                x = x.copy()
                x[i] = t_star
                fx = f_star
        last_gain = f_before - fx
        if last_gain <= tol.abs_tol * 0.1 + tol.rel_tol * 0.1 * (1.0 + abs(fx)):
            break
    return x, fx, max(last_gain, 0.0), evals


def subgradient_minimize(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0,
    tol: Tolerance = DEFAULT_TOL,
    max_iter: int | None = None,
) -> SubgradientResult:
    """Minimize a convex (possibly nonsmooth) function.

    First runs deterministic subgradient descent with the classical decreasing
    step c / sqrt(k) and best-iterate tracking, then polishes with cyclic
    exact coordinate searches.  The returned gap_estimate is the last recorded
    sweep improvement plus the absolute tolerance (an empirical certificate,
    not a dual bound).
    """
    x = as_vector(x0, "x0").copy()
    budget = tol.max_iter if max_iter is None else int(max_iter)
    fx = float(fun(x))
    best_x, best_f = x.copy(), fx
    g0 = as_vector(grad(x), "grad(x0)")
    c = (1.0 + float(np.linalg.norm(x))) / (1.0 + float(np.linalg.norm(g0)))
    n_sub = min(budget, 3000)
    for k in range(1, n_sub + 1):
        g = np.asarray(grad(x), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= tol.abs_tol:
            break
        x = x - (c / np.sqrt(k)) * g / gn
        fx = float(fun(x))
        if fx < best_f:
            best_f, best_x = fx, x.copy()
    x, fx = best_x, best_f
    x, fx, gain, polish_evals = _coordinate_polish(fun, x, fx, tol, max_sweeps=100)
    # One short Polyak-target phase to escape coordinate stalls, then re-polish.
    delta = max(10.0 * tol.abs_tol, 1e-9 * (1.0 + abs(fx)))
    z = x.copy()
    fz = fx
    for _ in range(200):
        g = np.asarray(grad(z), dtype=float)
        gsq = float(g @ g)
        if gsq <= tol.abs_tol**2:
            break
        z = z - max(fz - (fx - delta), 0.0) / gsq * g
        fz = float(fun(z))
        if fz < fx:
            x, fx = z.copy(), fz
        elif fz > fx + delta:
            delta *= 0.5
            z, fz = x.copy(), fx
    x, fx, gain2, polish_evals2 = _coordinate_polish(fun, x, fx, tol, max_sweeps=20)
    gap = max(gain, gain2) + tol.abs_tol
    iters = n_sub + polish_evals + polish_evals2
    return SubgradientResult(x=x, value=fx, gap_estimate=gap, iterations=iters)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


def sym_eig(a, tol: Tolerance = DEFAULT_TOL) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Backed by LAPACK through numpy; the input is symmetrized after a symmetry
    check, eigenvalues are sorted descending, and each eigenvector's sign is
    fixed so its largest-magnitude entry is positive (first index on ties),
    which keeps outputs reproducible.
    """
    s = check_symmetric(a, max(tol.abs_tol, 1e-9))
    w, v = np.linalg.eigh(s)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order]
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0:
            v[:, j] = -v[:, j]
    return SpectralDecomposition(values=w, vectors=v)


def psd_sqrt(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Symmetric PSD square root via the spectral decomposition.

    Eigenvalues in [-psd_tol, 0) are clipped to zero; anything lower raises
    NotPSD.  The result R satisfies R @ R ~= A and R = R.T exactly.
    """
    dec = sym_eig(a, tol)
    w = dec.values.copy()
    scale = 1.0 + float(np.abs(w).max(initial=0.0))
    floor = -max(tol.abs_tol, 1e-9) * scale
    if w.min(initial=0.0) < floor:
        raise NotPSD(f"matrix has eigenvalue {w.min():.3e} below the PSD tolerance")
    np.clip(w, 0.0, None, out=w)
    r = (dec.vectors * np.sqrt(w)) @ dec.vectors.T
    return 0.5 * (r + r.T)
