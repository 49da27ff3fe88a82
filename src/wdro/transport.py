"""Exact type-p Wasserstein distances between discrete distributions.

The distance is computed by solving the transport linear program over
couplings of the two atom sets.  Optimal dual variables are returned as
Kantorovich potentials (phi, psi) normalized so that

    psi_j - phi_i <= ||xi_i - xi'_j||^p   for every atom pair,

and the dual objective  psi . w' - phi . w  matches the primal optimum up
to the solver gap.  The module also provides the Gelbrich lower bound on
the type-2 distance, which depends on the two distributions only through
their means and covariance matrices.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._validation import as_matrix, as_samples, as_vector, check_psd, check_symmetric, check_weights
from .convex_analysis import NormSpec, norm_eval
from .errors import DimensionMismatch, NumericalFailure
from .numerics import DEFAULT_TOL, Tolerance, psd_sqrt
from .simplex import LinearProgram, solve_lp

__all__ = [
    "DiscreteDistribution",
    "TransportPlan",
    "DualPotentials",
    "TransportResult",
    "KRResult",
    "MomentPair",
    "wasserstein_p",
    "kr_verify",
    "gelbrich_distance",
    "moments",
]


@dataclasses.dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Finitely supported distribution: atoms (N, m) with a weight vector.

    Duplicate atoms are allowed; ``merged`` collapses them.
    """

    atoms: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        atoms = as_samples(self.atoms, "atoms")
        if self.weights is None:
            w = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            w = check_weights(self.weights, name="weights")
            if w.size != atoms.shape[0]:
                raise DimensionMismatch(
                    f"{w.size} weights given for {atoms.shape[0]} atoms"
                )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @classmethod
    def dirac(cls, point) -> "DiscreteDistribution":
        return cls(as_samples([np.asarray(point, dtype=float).ravel()]), np.array([1.0]))

    @classmethod
    def from_samples(cls, samples) -> "DiscreteDistribution":
        """Uniform weights over the given sample points."""
        return cls(as_samples(samples, "samples"))

    def merged(self, tol: float = 1e-10) -> "DiscreteDistribution":
        """Collapse atoms closer than ``tol`` in Euclidean distance."""
        reps = []
        wts = []
        for x, w in zip(self.atoms, self.weights):
            for k, r in enumerate(reps):
                if np.linalg.norm(x - r) <= tol:
                    wts[k] += w
                    break
            else:
                reps.append(x.copy())
                wts.append(float(w))
        return DiscreteDistribution(np.array(reps), np.array(wts))


@dataclasses.dataclass(frozen=True, eq=False)
class TransportPlan:
    """Coupling matrix between two atom sets with its marginals."""

    matrix: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.matrix, "matrix")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "row_marginals", as_vector(self.row_marginals, "row_marginals"))
        object.__setattr__(self, "col_marginals", as_vector(self.col_marginals, "col_marginals"))

    def max_marginal_error(self) -> float:
        e1 = np.max(np.abs(self.matrix.sum(axis=1) - self.row_marginals))
        e2 = np.max(np.abs(self.matrix.sum(axis=0) - self.col_marginals))
        return float(max(e1, e2))


@dataclasses.dataclass(frozen=True, eq=False)
class DualPotentials:
    """Kantorovich potentials over the two atom sets."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", as_vector(self.phi, "phi"))
        object.__setattr__(self, "psi", as_vector(self.psi, "psi"))


class TransportResult(NamedTuple):
    distance: float
    plan: TransportPlan
    duals: DualPotentials


class KRResult(NamedTuple):
    is_feasible: bool
    dual_value: float
    violating_pair: Optional[Tuple[int, int]]
    violation: float


@dataclasses.dataclass(frozen=True, eq=False)
class MomentPair:
    """Mean vector and positive semidefinite covariance matrix."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = as_vector(self.mu, "mu")
        sigma = check_symmetric(as_matrix(self.sigma, "sigma"), tol=1e-10, name="sigma")
        if sigma.shape[0] != mu.size:
            raise DimensionMismatch(
                f"sigma is {sigma.shape[0]}x{sigma.shape[1]} but mu has size {mu.size}"
            )
        check_psd(sigma, tol=1e-10, name="sigma")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.size


def _pairwise_costs(
    Q: DiscreteDistribution, Qp: DiscreteDistribution, p: float, norm: NormSpec
) -> np.ndarray:
    return norm_eval(norm, Q.atoms[:, None, :] - Qp.atoms[None, :, :]) ** p


def wasserstein_p(
    Q: DiscreteDistribution,
    Qp: DiscreteDistribution,
    p: float,
    norm: Optional[NormSpec] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TransportResult:
    """Type-p Wasserstein distance with optimal plan and dual potentials.

    Solves the dense transport LP over all couplings.  One column
    constraint is redundant given the row constraints and is dropped, so
    the remaining equality system has full rank; the corresponding
    potential entry is pinned to zero.
    """
    if not isinstance(Q, DiscreteDistribution) or not isinstance(Qp, DiscreteDistribution):
        raise TypeError("wasserstein_p expects DiscreteDistribution inputs")
    if Q.dim != Qp.dim:
        raise DimensionMismatch(f"atom dimensions differ: {Q.dim} vs {Qp.dim}")
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError("order p must be finite and >= 1")
    if norm is None:
        norm = NormSpec.p_norm(2)

    N, M = Q.n_atoms, Qp.n_atoms
    C = _pairwise_costs(Q, Qp, p, norm)

    n_vars = N * M
    n_rows = N + (M - 1)
    A = np.zeros((n_rows, n_vars))
    b = np.zeros(n_rows)
    for i in range(N):
        A[i, i * M : (i + 1) * M] = 1.0
        b[i] = Q.weights[i]
    for j in range(M - 1):
        A[N + j, j::M] = 1.0
        b[N + j] = Qp.weights[j]

    lp = LinearProgram(c=C.ravel(), A=A, senses=["="] * n_rows, b=b)
    sol = solve_lp(lp, tol=tol)
    if sol.status != "optimal":
        raise NumericalFailure(f"transport LP terminated with status {sol.status}")

    # Basis solves leave entries around 1e-17 in the vertex solution; summed
    # against nonzero costs they lift the value of a zero-cost instance to
    # ~1e-16, which the p-th root amplifies.  Genuine plan entries are masses
    # and sit many orders above this floor.
    x = sol.x.copy()
    x[x < 1e-13 * max(float(x.max(initial=0.0)), 1e-300)] = 0.0
    value = max(float(C.ravel() @ x), 0.0)
    plan = TransportPlan(x.reshape(N, M), Q.weights, Qp.weights)

    u = sol.duals[:N]
    v = np.append(sol.duals[N:], 0.0)
    duals = DualPotentials(phi=-u, psi=v)

    dual_value = float(duals.psi @ Qp.weights - duals.phi @ Q.weights)
    gap = value - dual_value
    scale = 1.0 + abs(value)
    if abs(gap) > max(tol.abs_tol, 1e-8 * scale):
        raise NumericalFailure(f"transport duality gap {gap:.3e} exceeds tolerance")

    return TransportResult(distance=value ** (1.0 / p), plan=plan, duals=duals)


def kr_verify(
    Q: DiscreteDistribution,
    Qp: DiscreteDistribution,
    norm: NormSpec,
    duals: DualPotentials,
    tol: Tolerance = DEFAULT_TOL,
) -> KRResult:
    """Check type-1 dual feasibility on the atom set and report the value.

    Feasibility requires ``psi_j - phi_i <= ||xi_i - xi'_j||`` for every
    pair; the returned value ``psi . w' - phi . w`` is then a certified
    lower bound on the type-1 distance.  On violation the worst pair and
    its slack excess are reported instead of raising.
    """
    if Q.dim != Qp.dim:
        raise DimensionMismatch(f"atom dimensions differ: {Q.dim} vs {Qp.dim}")
    if duals.phi.size != Q.n_atoms or duals.psi.size != Qp.n_atoms:
        raise DimensionMismatch("potential lengths do not match the atom counts")

    C = _pairwise_costs(Q, Qp, 1.0, norm)
    slack = duals.psi[None, :] - duals.phi[:, None] - C
    i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
    worst = float(slack[i, j])
    feas_tol = max(tol.abs_tol, tol.rel_tol * (1.0 + float(np.max(np.abs(C)))))
    dual_value = float(duals.psi @ Qp.weights - duals.phi @ Q.weights)
    if worst > feas_tol:
        return KRResult(False, dual_value, (int(i), int(j)), worst)
    return KRResult(True, dual_value, None, max(worst, 0.0))


def gelbrich_distance(m1: MomentPair, m2: MomentPair, tol: Tolerance = DEFAULT_TOL) -> float:
    """Gelbrich distance between two mean/covariance pairs.

    Equals sqrt(||mu - mu'||^2 + Tr[S + S' - 2 (S^{1/2} S' S^{1/2})^{1/2}])
    and lower-bounds the type-2 Wasserstein distance between any two
    distributions carrying these moments.  The inner trace is clipped at
    zero when eigen-roundoff drives it slightly negative.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"moment dimensions differ: {m1.dim} vs {m2.dim}")
    # Tr[(S^{1/2} S' S^{1/2})^{1/2}] equals the nuclear norm of
    # S^{1/2} S'^{1/2}, which avoids a second nested matrix square root
    r1 = psd_sqrt(m1.sigma)
    r2 = psd_sqrt(m2.sigma)
    cross = float(np.sum(np.linalg.svd(r1 @ r2, compute_uv=False)))
    trace_term = float(np.trace(m1.sigma) + np.trace(m2.sigma)) - 2.0 * cross
    scale = float(np.trace(m1.sigma) + np.trace(m2.sigma))
    if trace_term < 0.0:
        if trace_term < -1e-8 * scale:
            raise NumericalFailure(
                f"covariance trace term {trace_term:.3e} is negative beyond roundoff"
            )
        trace_term = 0.0
    mean_term = float(np.sum((m1.mu - m2.mu) ** 2))
    return math.sqrt(mean_term + trace_term)


def moments(Q: DiscreteDistribution) -> MomentPair:
    """Weighted mean and covariance of a discrete distribution."""
    mu = Q.weights @ Q.atoms
    centered = Q.atoms - mu
    sigma = (centered * Q.weights[:, None]).T @ centered
    return MomentPair(mu, 0.5 * (sigma + sigma.T))
