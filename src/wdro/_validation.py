"""Small input-validation helpers used by the public entry points."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotSymmetric

__all__ = [
    "as_vector",
    "as_matrix",
    "as_samples",
    "check_symmetric",
    "check_weights",
    "radius",
    "ParamsMixin",
]


def as_vector(x, name: str = "x") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(x, name: str = "A") -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_samples(x, name: str = "samples") -> np.ndarray:
    """Coerce to an (N, m) sample array; 1-D input is read as N scalars."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 1- or 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_symmetric(a, tol: float = 1e-9, name: str = "A") -> np.ndarray:
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if np.abs(a - a.T).max(initial=0.0) > tol * np.abs(a).max(initial=0.0):
        raise NotSymmetric(f"{name} is not symmetric within tolerance {tol} relative to its entries")
    return 0.5 * (a + a.T)


def check_weights(w, tol: float = 1e-12, name: str = "weights") -> np.ndarray:
    w = as_vector(w, name)
    if (w < -tol).any():
        raise ValueError(f"{name} must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > max(tol, 1e-12 * len(w)):
        raise ValueError(f"{name} must sum to one, got {total!r}")
    return w.clip(0.0)


def radius(eps, positive: bool = False, name: str = "eps") -> float:
    """eps as a float, -0.0 as 0.0; ValueError naming ``name`` unless it is
    finite and nonnegative (positive, with ``positive``): the dualities
    behind the worst cases hold only for a finite radius."""
    r = float(eps) + 0.0
    if not (math.isfinite(r) and (r > 0.0 if positive else r >= 0.0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {r}")
    return r


class ParamsMixin:
    """get_params and set_params over the parameters a wrapper names in _PARAMS."""

    _PARAMS: tuple = ()

    def get_params(self, deep: bool = True) -> dict:
        return {key: getattr(self, key) for key in self._PARAMS}

    def set_params(self, **params):
        """Set the given parameters; an unknown key raises before any is set."""
        for key in params:
            if key not in self._PARAMS:
                raise ValueError(f"unknown parameter {key!r}")
        for key, value in params.items():
            setattr(self, key, value)
        return self
