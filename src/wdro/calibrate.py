"""Radius selection for Wasserstein and moment ambiguity balls.

Two concentration-based formulas give radii that make the ball a
(1 - eta)-confidence set: one for empirical distributions under a
light-tail condition, one for sample moments.  Their constants are
existential in the underlying theory, so they must be supplied by the
caller; the defaults shipped here (c1 = e, c2 = 1, c = e) are heuristic
placeholders.  The cross-validation driver is the recommended practical
path: it picks the radius whose out-of-sample risk is smallest, with
deterministic fold assignment derived from a seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._validation import as_samples, radius
from .errors import InsufficientData, UnsupportedCase

__all__ = [
    "TailModel",
    "MomentTailModel",
    "radius_empirical",
    "radius_moments",
    "eta_schedule",
    "fold_assignments",
    "cv_radius",
]

_MASK = (1 << 64) - 1


@dataclasses.dataclass(frozen=True)
class TailModel:
    """Light-tail description: E[exp(||xi||^alpha)] <= A, plus constants.

    c1 and c2 are the concentration constants; they depend on alpha, A and
    the dimension m in ways the theory does not make explicit.
    """

    alpha: float
    A: float
    m: int
    c1: float = math.e
    c2: float = 1.0

    def __post_init__(self):
        if not self.A > 0:
            raise ValueError("tail bound A must be positive")
        if not self.c1 > 1:
            raise ValueError("c1 must exceed 1 so the log stays positive for eta <= 1")
        if not self.c2 > 0:
            raise ValueError("c2 must be positive")
        if self.m < 1:
            raise ValueError("dimension m must be at least 1")


@dataclasses.dataclass(frozen=True)
class MomentTailModel:
    """Concentration constant for sample mean and covariance."""

    c: float = math.e

    def __post_init__(self):
        if not self.c > 1:
            raise ValueError("c must exceed 1")


def radius_empirical(model: TailModel, N: int, eta: float, p: float) -> float:
    """Critical radius making a type-p ball a (1 - eta)-confidence set.

    Two branches: for N >= log(c1/eta)/c2 the exponent is min(p/m, 1/2),
    below that threshold it is p/alpha.  The boundary case p = m/2 needs a
    different formula and is rejected.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if N < 1:
        raise ValueError("N must be at least 1")
    if not p >= 1.0:
        raise ValueError("order p must satisfy p >= 1")
    if p == model.m / 2.0:
        raise UnsupportedCase("p = m/2 needs a different radius formula")
    if not model.alpha > p:
        raise ValueError("the tail exponent alpha must exceed p")
    log_term = math.log(model.c1 / eta)
    base = log_term / (model.c2 * N)
    if N >= log_term / model.c2:
        exponent = min(p / model.m, 0.5)
    else:
        exponent = p / model.alpha
    return base**exponent


def radius_moments(model: MomentTailModel, N: int, eta: float) -> float:
    """Critical radius log(c/eta)/sqrt(N) for the moment uncertainty set."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if N < 1:
        raise ValueError("N must be at least 1")
    return math.log(model.c / eta) / math.sqrt(N)


def eta_schedule(N: int) -> float:
    """Summable significance schedule exp(-sqrt(N)) for consistency runs."""
    return math.exp(-math.sqrt(N))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # on uint64 arrays, where overflow wraps silently as the hash needs
    z = z + np.uint64(0x9E3779B97F4B7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def fold_assignments(n: int, folds: int, seed: int = 0) -> np.ndarray:
    """Deterministic fold index per sample.

    Samples are ordered by a hash of (seed, index) and dealt round-robin, so
    fold sizes differ by at most one and a fold can only be empty when there
    are fewer samples than folds.
    """
    index = np.arange(1, n + 1, dtype=np.uint64)
    keys = _splitmix64(np.uint64(seed & _MASK) ^ _splitmix64(index))
    assign = np.empty(n, dtype=int)
    assign[np.argsort(keys, kind="stable")] = np.arange(n) % folds
    return assign


def cv_radius(
    train_fn,
    eval_fn,
    samples,
    eps_grid,
    folds: int = 5,
    seed: int = 0,
) -> float:
    """Pick the radius with the best cross-validated out-of-sample risk.

    train_fn(train_rows, eps) fits a model on the row subset; eval_fn
    (model, test_rows) scores it.  Scores are averaged with fold-size
    weights.  Ties resolve to the smallest radius.  Supervised callers
    stack targets as trailing columns of the sample rows.
    """
    x = as_samples(samples, "samples")
    grid = sorted(radius(e, name="eps_grid") for e in eps_grid)
    if not grid:
        raise ValueError("eps_grid must be nonempty")
    if folds < 2:
        raise ValueError("need at least two folds")
    assign = fold_assignments(x.shape[0], folds, seed)
    counts = np.bincount(assign, minlength=folds)
    if counts.min() == 0:
        raise InsufficientData(f"{folds} folds over {x.shape[0]} samples leave a fold empty")

    # the folds' row sets, split once for the whole grid
    splits = [(x[assign != k], x[assign == k], counts[k]) for k in range(folds)]
    best_eps, best_risk = None, math.inf
    for eps in grid:
        total = 0.0
        for train, test, count in splits:
            total += count * float(eval_fn(train_fn(train, eps), test))
        risk = total / x.shape[0]
        if risk < best_risk:
            best_eps, best_risk = eps, risk
    return best_eps
