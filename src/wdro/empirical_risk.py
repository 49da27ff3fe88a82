"""Worst-case expected loss over Wasserstein balls around discrete samples.

Two loss families are covered exactly at desk scale:

* piecewise-affine (max of affine pieces) losses, for type-1 and type-inf
  balls with whole-space or polyhedral support through one mass-splitting
  LP tiled from a per-cell numpy block, plus the type-2 whole-space case
  through a scalar dual;
* indefinite quadratic losses ``xi' Q xi + 2 q' xi`` for type-2 balls with
  Euclidean norm and whole-space support, through an eigenvalue-based
  scalar dual.

Each worst-case value comes with a matching extremal construction: either
an attained discrete distribution inside the ball, or a one-parameter
family of distributions whose risk converges to the value while an atom
escapes to infinity.  Cheap Lipschitz upper bounds and perturbed-empirical
lower bounds sandwich the exact value.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._validation import as_matrix, as_samples, as_vector, check_symmetric
from .convex_analysis import (
    NormSpec,
    SetSpec,
    _block_diag,
    dual_norm_eval,
    norm_epigraph_rows,
    norm_eval,
    norm_subgradient,
    support_function_eval,
)
from .errors import (
    DimensionMismatch,
    NumericalFailure,
    Unbounded,
    UnsupportedCombination,
    UnsupportedSupport,
)
from .numerics import DEFAULT_TOL, Tolerance, bisect_root, sym_eig
from .simplex import LinearProgram, solve_lp
from .transport import DiscreteDistribution

__all__ = [
    "BallSpec",
    "PiecewiseAffineLoss",
    "QuadraticLoss",
    "EscapingAtom",
    "AsymptoticFamily",
    "ExtremalReport",
    "expected_loss",
    "wc_risk_pwa",
    "lipschitz_modulus_pwa",
    "lipschitz_upper_bound",
    "robust_lower_bound",
    "wc_risk_quadratic",
    "extremal_pwa",
    "extremal_quadratic",
]


@dataclasses.dataclass(frozen=True, eq=False)
class BallSpec:
    """Wasserstein ball: radius, order p in {1, 2, inf}, ground norm, support.

    ``support=None`` means the whole space.  Only whole-space and polyhedral
    supports are accepted; other set kinds raise UnsupportedSupport.
    """

    eps: float
    p: float
    norm: NormSpec = None
    support: Optional[SetSpec] = None

    def __post_init__(self):
        if not self.eps >= 0:
            raise ValueError("ball radius eps must be nonnegative")
        if self.p not in (1.0, 2.0, math.inf):
            raise ValueError("ball order p must be 1, 2 or inf")
        if self.norm is None:
            object.__setattr__(self, "norm", NormSpec.p_norm(2))
        if self.support is not None and self.support.kind not in ("whole", "polyhedron"):
            raise UnsupportedSupport(
                f"support kind {self.support.kind!r} is not supported; "
                "use the whole space or a polyhedron"
            )
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "p", float(self.p))

    def support_for(self, dim: int) -> SetSpec:
        if self.support is None:
            return SetSpec.whole(dim)
        if self.support.dim != dim:
            raise DimensionMismatch(
                f"support lives in dimension {self.support.dim}, samples in {dim}"
            )
        return self.support


def _as_points(xi) -> np.ndarray:
    """One point as a vector, or several as the rows of a matrix."""
    xi = np.asarray(xi, dtype=float)
    return as_vector(xi, "xi") if xi.ndim < 2 else as_samples(xi, "xi")


class PiecewiseAffineLoss:
    """Loss xi -> max_j (a_j' xi + b_j) given as a list of (a_j, b_j) pieces."""

    def __init__(self, pieces: Sequence[Tuple]):
        pieces = list(pieces)
        if not pieces:
            raise ValueError("at least one affine piece is required")
        A = np.vstack([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in pieces])
        b = np.array([float(b) for _, b in pieces])
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("pieces contain non-finite slopes or intercepts")
        self.A = A
        self.b = b

    @property
    def n_pieces(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def pieces(self):
        return [(self.A[j].copy(), float(self.b[j])) for j in range(self.n_pieces)]

    def value(self, xi) -> float | np.ndarray:
        """Loss at a point (a float) or at each row of an (N, m) stack (an array)."""
        xi = _as_points(xi)
        vals = self.piece_table(xi).max(axis=-1)
        return float(vals) if xi.ndim == 1 else vals

    def piece_table(self, atoms: np.ndarray) -> np.ndarray:
        """Matrix L with L[i, j] = a_j' atom_i + b_j."""
        return atoms @ self.A.T + self.b


class QuadraticLoss:
    """Loss xi -> xi' Q xi + 2 q' xi with symmetric (possibly indefinite) Q.

    Note the factor of two on the linear term: the gradient is 2(Q xi + q).
    """

    def __init__(self, Q, q):
        self.Q = check_symmetric(as_matrix(Q, "Q"), tol=1e-10, name="Q")
        self.q = as_vector(q, "q")
        if self.Q.shape[0] != self.q.size:
            raise DimensionMismatch("Q and q dimensions differ")

    @property
    def dim(self) -> int:
        return self.q.size

    def value(self, xi) -> float | np.ndarray:
        """Loss at a point (a float) or at each row of an (N, m) stack (an array)."""
        xi = _as_points(xi)
        vals = np.einsum("...j,jk,...k->...", xi, self.Q, xi) + 2.0 * (xi @ self.q)
        return float(vals) if xi.ndim == 1 else vals


def expected_loss(loss, distribution: DiscreteDistribution) -> float:
    """Expected loss under a discrete distribution."""
    return float(distribution.weights @ loss.value(distribution.atoms))


@dataclasses.dataclass(frozen=True, eq=False)
class EscapingAtom:
    """One atom of mass donor_unit/n escaping to infinity as n grows.

    position(n) = origin + radial(n) * direction, where radial grows like
    n ** rate_exponent; the mass is borrowed from the base atom ``donor``.
    """

    origin: np.ndarray
    direction: np.ndarray
    donor: int
    donor_unit: float
    rate_kind: str
    coef: float
    offset: float = 0.0

    @property
    def rate_exponent(self) -> float:
        return 1.0 if self.rate_kind == "linear" else 0.5

    def radial(self, n: float) -> float:
        if self.rate_kind == "linear":
            return self.coef * n
        return math.sqrt(self.offset**2 + self.coef * n) - self.offset

    def position(self, n: float) -> np.ndarray:
        return self.origin + self.radial(n) * self.direction

    def mass(self, n: float) -> float:
        return self.donor_unit / n


@dataclasses.dataclass(frozen=True, eq=False)
class AsymptoticFamily:
    """Family Q_n of in-ball distributions whose risk approaches the optimum."""

    base_atoms: np.ndarray
    base_weights: np.ndarray
    escapes: Tuple[EscapingAtom, ...]

    def distribution(self, n: int) -> DiscreteDistribution:
        weights = self.base_weights.astype(float).copy()
        atoms = [self.base_atoms]
        extra = []
        for esc in self.escapes:
            m = esc.mass(n)
            weights[esc.donor] -= m
            atoms.append(esc.position(n)[None, :])
            extra.append(m)
        if np.min(weights) < 0.0:
            raise ValueError(f"n={n} is too small: a donor atom would get negative mass")
        return DiscreteDistribution(np.vstack(atoms), np.concatenate([weights, extra]))


@dataclasses.dataclass(frozen=True, eq=False)
class ExtremalReport:
    """Worst-case distribution: attained exactly or as an escaping family."""

    kind: str
    certified_value: float
    distribution: Optional[DiscreteDistribution] = None
    family: Optional[AsymptoticFamily] = None


def _check_inputs(loss_dim: int, samples: DiscreteDistribution, ball: BallSpec) -> SetSpec:
    if samples.dim != loss_dim:
        raise DimensionMismatch(
            f"loss dimension {loss_dim} does not match sample dimension {samples.dim}"
        )
    support = ball.support_for(samples.dim)
    if support.kind == "polyhedron":
        for i, atom in enumerate(samples.atoms):
            if not support.contains(atom, tol=1e-9):
                raise ValueError(f"sample atom {i} lies outside the support set")
    return support


def lipschitz_modulus_pwa(loss: PiecewiseAffineLoss, norm: NormSpec) -> float:
    """Lipschitz constant of a max-affine loss: the largest dual piece norm."""
    return float(dual_norm_eval(norm, loss.A).max())


def lipschitz_upper_bound(
    loss: PiecewiseAffineLoss, samples: DiscreteDistribution, ball: BallSpec
) -> float:
    """Nominal risk plus radius times Lipschitz modulus; bounds every ball order."""
    _check_inputs(loss.dim, samples, ball)
    return expected_loss(loss, samples) + ball.eps * lipschitz_modulus_pwa(loss, ball.norm)


class _MassSplit(NamedTuple):
    value: float  # the worst-case risk, in the data's unit
    alpha: np.ndarray  # (N, J) share of sample i's mass routed to piece j
    theta: np.ndarray  # (N, J, m) aggregate shift of that mass, over unit
    unit: float


def _travel_bound(support: SetSpec, atoms: np.ndarray, norm: NormSpec, tol: Tolerance) -> float:
    """Bound on norm(x - xi) over x in the support and every atom xi.

    From the support's bounding box lo <= x <= hi, infinite where it is
    unbounded: norm(x - xi) <= sum_k max(hi_k - xi_k, xi_k - lo_k) norm(e_k).
    """
    E = np.eye(atoms.shape[1])
    hi = np.array([support_function_eval(support, e, tol) for e in E])
    lo = -np.array([support_function_eval(support, -e, tol) for e in E])
    room = np.maximum(hi - atoms, atoms - lo)
    return float((room @ norm_eval(norm, E)).max())


def _mass_split_lp(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
    support: SetSpec,
    tol: Tolerance,
) -> _MassSplit:
    """Primal mass-splitting LP for type-1 and type-inf balls.

    Variables alpha_ij (mass of sample i routed to piece j) and theta_ij
    (aggregate shift of that mass), maximizing
    sum_ij w_i [alpha_ij l_j(xi_i) + a_j' theta_ij] subject to the mixture
    rows sum_j alpha_ij = 1, the support rows in perspective form
    C(xi_i alpha_ij + theta_ij) <= d alpha_ij, and the transport rows: for
    type 1 one shared budget sum_ij w_i t_ij <= eps with ||theta_ij|| <= t_ij,
    for type inf ||theta_ij|| <= eps alpha_ij in each cell.  Its LP dual
    holds one conjugate per piece (Mohajerin Esfahani and Kuhn 2018,
    Thm 4.2), so the optimum is the worst-case risk.  In type 1, pairs with
    alpha = 0 but theta != 0 are recession directions realized by escaping
    atoms.

    The LP is stated relative to the samples.  Each cost is the gap
    l_j(xi_i) - l(xi_i) <= 0 to the sample's loss, so the value is the
    nominal risk plus the optimum, and each support row reads
    C theta_ij <= (d - C xi_i) alpha_ij.  The mixture rows are relaxed to
    sum_j alpha_ij <= 1: mass left unrouted stays on the sample's active
    piece, at gap 0 and with the loosest rows, so the optimum is unchanged,
    the all-slack start is the nominal distribution and no phase 1 runs.
    The returned alpha puts that mass back.  Gaps, slacks and eps scale
    with lengths (a gap is a slope times a length) and are divided by a
    length unit of the data, so translating or scaling the data leaves the
    LP's numbers unchanged.  theta is left in that unit.
    """
    N, J, m = samples.n_atoms, loss.n_pieces, samples.dim
    if support.kind == "polyhedron":
        C, d = support.C_matrix(), support.d_vector()
    else:
        C, d = np.zeros((0, m)), np.zeros(0)
    w = samples.weights
    L = loss.piece_table(samples.atoms)
    nominal = L.max(axis=1)
    # atoms accepted by the support's membership tolerance sit on its faces
    slack = np.maximum(d[None, :] - samples.atoms @ C.T, 0.0)
    norms = np.linalg.norm(C, axis=1)
    reach = float((slack[:, norms > 0] / norms[norms > 0]).max()) if np.any(norms > 0) else math.inf
    eps = ball.eps
    if ball.p != 1.0 and eps > reach:
        # no cell moves further than the support reaches, and a radius far
        # beyond that only puts huge coefficients into the type-inf rows
        eps = min(eps, _travel_bound(support, samples.atoms, ball.norm, tol))
    # a type-inf cell moves at most eps: rows of faces beyond that are redundant
    far = eps * dual_norm_eval(ball.norm, C) if ball.p != 1.0 and C.size else math.inf
    reachable = slack <= far
    # The simplex's tolerances are absolute: lengths far below the unit vanish
    # and lengths far above it swamp the pivots.  So the unit is the radius,
    # capped at the largest sample-to-face distance (a huge radius in a small
    # support), raised to half the samples' spread (a tiny radius among spread
    # samples) and kept above 1e-6 eps (a sample next to a face).
    spread = 0.5 * float(np.ptp(samples.atoms, axis=0).max())
    unit = max(spread, min(eps, reach), 1e-6 * eps)
    gaps, slack, eps = (L - nominal[:, None]) / unit, slack / unit, eps / unit

    # Cell (i, j) owns the columns alpha_ij, theta_ij, among the first
    # N J (1 + m), and its norm rows' auxiliaries, led by t_ij in type 1,
    # after all of those.  Its rows are the norm rows, then the support rows
    # of the faces it can reach.
    G, H, g = norm_epigraph_rows(ball.norm, m)
    R, K = g.size, N * J
    lead = np.zeros((N, J, R + C.shape[0], 1 + m))
    lead[:, :, :R, 1:] = G
    lead[:, :, R:, 1:] = C
    lead[:, :, R:, 0] = -slack[:, None, :]
    own = np.zeros((R + C.shape[0], H.shape[1] + (ball.p == 1.0)))
    if ball.p == 1.0:
        own[:R] = np.column_stack([g, H])
    else:
        own[:R] = H
        lead[:, :, :R, 0] = eps * g
    keep = np.repeat(np.column_stack([np.ones((N, R), dtype=bool), reachable]), J, axis=0)
    tiled = (lead.reshape(K, *lead.shape[2:]), np.broadcast_to(own, (K, *own.shape)))
    cells = np.hstack([_block_diag(T) for T in tiled])[keep.ravel()]
    n_lead, n_own = K * (1 + m), K * own.shape[1]
    mixture = _block_diag(np.broadcast_to(np.tile(np.eye(1, 1 + m), J), (N, 1, J * (1 + m))))
    A = np.vstack([np.pad(mixture, ((0, 0), (0, n_own))), cells])
    b = np.append(np.ones(N), np.zeros(len(cells)))
    if ball.p == 1.0:
        budget = np.kron(np.repeat(w, J), np.eye(1, own.shape[1]))
        A = np.vstack([A, np.pad(budget, ((0, 0), (n_lead, 0)))])
        b = np.append(b, eps)
    cost = np.concatenate([-(w[:, None] * gaps)[:, :, None], -(w[:, None, None] * loss.A)], axis=2)
    bounds = (((0.0, None),) + ((None, None),) * m) * K + ((0.0, None),) * n_own
    lp = LinearProgram(np.append(cost, np.zeros(n_own)), A, ["<="] * b.size, b, bounds)

    sol = solve_lp(lp, tol=tol)
    if sol.status == "unbounded":
        raise Unbounded("worst-case risk is infinite; no extremal construction exists")
    if sol.status != "optimal":
        raise NumericalFailure(f"worst-case LP terminated with status {sol.status}")
    value = float(w @ nominal) - unit * float(sol.objective)
    x = sol.x[:n_lead].reshape(N, J, 1 + m)
    alpha = x[:, :, 0].copy()
    alpha[np.arange(N), L.argmax(axis=1)] += np.maximum(1.0 - alpha.sum(axis=1), 0.0)
    return _MassSplit(value, alpha, x[:, :, 1:], unit)


def _wc_pwa_p2_whole(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
    tol: Tolerance,
) -> float:
    """Scalar dual for the type-2 whole-space case.

    value = inf_{gamma > 0} gamma eps^2
            + sum_i w_i max_j [ l_j(xi_i) + ||a_j||_*^2 / (4 gamma) ].
    """
    L = loss.piece_table(samples.atoms)
    D = dual_norm_eval(ball.norm, loss.A) ** 2
    nominal = expected_loss(loss, samples)
    d_max = float(np.max(D))
    if d_max == 0.0:
        return nominal

    w = samples.weights

    def value_at(g: float) -> float:
        inner = L + D[None, :] / (4.0 * g)
        return g * ball.eps**2 + float(w @ inner.max(axis=1))

    def deriv(g: float) -> float:
        inner = L + D[None, :] / (4.0 * g)
        active = np.argmax(inner, axis=1)
        return ball.eps**2 - float(w @ D[active]) / (4.0 * g * g)

    center = math.sqrt(d_max) / (2.0 * ball.eps)
    lo, hi = center * 1e-9, center * 1e9 + 1.0
    if deriv(lo) >= 0.0:
        return value_at(lo)
    g_star = bisect_root(deriv, (lo, hi), tol=tol, expand="none")
    return value_at(g_star)


def wc_risk_pwa(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
    tol: Tolerance = DEFAULT_TOL,
    method: str = "auto",
) -> float:
    """Exact worst-case expected max-affine loss over a Wasserstein ball.

    Whole-space supports use closed forms (type-1: nominal plus eps times
    the Lipschitz modulus; type-inf: per-sample sup; type-2: scalar dual).
    Polyhedral supports use the mass-splitting LP (``_mass_split_lp``, the
    same LP ``extremal_pwa`` reads its distribution from), which requires
    p in {1, inf} and a polyhedral ground norm.  ``method`` is one of
    "auto", "closed_form", "lp"; forcing "lp" on a whole-space instance
    runs the same LP with zero support rows, which is useful for
    cross-checks.
    """
    support = _check_inputs(loss.dim, samples, ball)
    nominal = expected_loss(loss, samples)
    if ball.eps == 0.0:
        return nominal

    if method not in ("auto", "closed_form", "lp"):
        raise ValueError(f"unknown method {method!r}")

    whole = support.kind == "whole"
    if not whole and ball.p == 2.0:
        raise UnsupportedCombination(
            "type-2 balls over a proper polyhedral support need a conic "
            "reformulation and are not supported"
        )
    if method == "closed_form" and not whole:
        raise ValueError("closed forms exist only for whole-space support")

    if whole and method in ("auto", "closed_form"):
        if ball.p == 1.0:
            return nominal + ball.eps * lipschitz_modulus_pwa(loss, ball.norm)
        if ball.p == math.inf:
            duals = dual_norm_eval(ball.norm, loss.A)
            per_sample = (loss.piece_table(samples.atoms) + ball.eps * duals).max(axis=1)
            return float(samples.weights @ per_sample)
        return _wc_pwa_p2_whole(loss, samples, ball, tol)

    if ball.p == 2.0:
        raise UnsupportedCombination("the type-2 case has no LP path")
    if not ball.norm.is_lp_representable(samples.dim):
        raise UnsupportedCombination(
            "the ground norm is not polyhedral; this ball/support "
            "combination has no LP reformulation"
        )
    return _mass_split_lp(loss, samples, ball, support, tol).value


def _coordinate_intervals(C, d, xi, k, cap):
    """Range of coordinate-k moves keeping xi + t e_k inside {C x <= d}."""
    t_lo, t_hi = -cap, cap
    if C.shape[0]:
        resid = d - C @ xi
        for r in range(C.shape[0]):
            c = C[r, k]
            if c > 1e-14:
                t_hi = min(t_hi, resid[r] / c)
            elif c < -1e-14:
                t_lo = max(t_lo, resid[r] / c)
    return min(t_lo, 0.0), max(t_hi, 0.0)


def robust_lower_bound(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Certified lower bound from perturbed N-point empirical distributions.

    Moves each sample inside the support under the shared transport budget
    sum_i w_i ||theta_i||^p <= eps^p.  A single affine piece on the whole
    space is solved in closed form (nominal + eps ||a||_*); otherwise each
    sample is improved by coordinatewise line search against a budget
    multiplier, with the multiplier found by bisection.  Every candidate is
    scaled back into the budget before evaluation, so the returned value is
    always feasible, hence a true lower bound on the worst-case risk.
    """
    support = _check_inputs(loss.dim, samples, ball)
    if not math.isfinite(ball.p):
        raise UnsupportedCombination("the perturbation bound needs a finite ball order")
    nominal = expected_loss(loss, samples)
    if ball.eps == 0.0:
        return nominal

    if loss.n_pieces == 1 and support.kind == "whole":
        return nominal + ball.eps * dual_norm_eval(ball.norm, loss.A[0])

    if support.kind == "polyhedron":
        C, d = support.C_matrix(), support.d_vector()
    else:
        C, d = np.zeros((0, loss.dim)), np.zeros(0)

    N, m = samples.n_atoms, samples.dim
    w = samples.weights
    p, eps = ball.p, ball.eps
    target = eps**p
    unit_norms = np.maximum(norm_eval(ball.norm, np.eye(m)), 1e-12)

    def ascend(gamma: float) -> np.ndarray:
        theta = np.zeros((N, m))
        for i in range(N):
            cap_i = 4.0 * (target / w[i]) ** (1.0 / p)
            for _ in range(2):
                for k in range(m):
                    base = samples.atoms[i] + theta[i]
                    t_lo, t_hi = _coordinate_intervals(
                        C, d, base, k, cap_i / unit_norms[k]
                    )
                    cands = set(np.linspace(t_lo, t_hi, 25).tolist())
                    cands.update([0.0, -theta[i, k]])
                    # piece-crossing points along the coordinate line
                    for j1 in range(loss.n_pieces):
                        for j2 in range(j1 + 1, loss.n_pieces):
                            da = loss.A[j1] - loss.A[j2]
                            if abs(da[k]) > 1e-12:
                                t = -(da @ base + loss.b[j1] - loss.b[j2]) / da[k]
                                if t_lo <= t <= t_hi:
                                    cands.add(float(t))
                    best_t, best_f = 0.0, -math.inf
                    for t in sorted(cands):
                        if not (t_lo - 1e-12 <= t <= t_hi + 1e-12):
                            continue
                        shift = theta[i].copy()
                        shift[k] += t
                        f = loss.value(samples.atoms[i] + shift) - gamma * norm_eval(
                            ball.norm, shift
                        ) ** p
                        if f > best_f + 1e-15:
                            best_t, best_f = t, f
                    theta[i, k] += best_t
        return theta

    def spent(theta: np.ndarray) -> float:
        return float(w @ norm_eval(ball.norm, theta) ** p)

    def evaluate(theta: np.ndarray) -> float:
        budget = spent(theta)
        scale = 1.0 if budget <= target else (target / budget) ** (1.0 / p)
        return float(w @ loss.value(samples.atoms + scale * theta))

    lip = lipschitz_modulus_pwa(loss, ball.norm)
    best = nominal
    g_lo, g_hi = 0.0, 2.0 * lip + 1.0
    for _ in range(8):
        theta = ascend(g_hi)
        if spent(theta) <= target:
            break
        g_hi *= 4.0
    for _ in range(30):
        g_mid = 0.5 * (g_lo + g_hi)
        theta = ascend(g_mid)
        best = max(best, evaluate(theta))
        if spent(theta) > target:
            g_lo = g_mid
        else:
            g_hi = g_mid
    return best


class _QuadDual(NamedTuple):
    value: float
    gamma: float
    theta: np.ndarray
    alpha: float
    boundary: bool
    top_value: float
    top_vector: np.ndarray


def _quad_scalar_dual(
    loss: QuadraticLoss, samples: DiscreteDistribution, eps: float, tol: Tolerance
) -> _QuadDual:
    """Minimize g(gamma) = nominal + gamma eps^2 + sum_i w_i sum_k c_ik^2/(gamma - lam_k)
    over gamma >= max(0, lam_max), where c_i = V' (q + Q xi_i).

    g'(gamma) = eps^2 - sum_i w_i ||theta_i(gamma)||^2 is increasing, so the
    minimizer is either an interior root of g' or the boundary.  At the
    boundary the top eigenspace is deflated; a nonzero component there makes
    g' diverge to -inf and forces an interior minimizer.
    """
    eig = sym_eig(loss.Q, tol=tol)
    lam, V = eig.values, eig.vectors
    atoms, w = samples.atoms, samples.weights
    nominal = expected_loss(loss, samples)
    Cmat = (loss.q[None, :] + atoms @ loss.Q) @ V  # rows c_i
    D = Cmat**2

    gamma_b = max(0.0, float(lam[0]))
    tau = 1e-12 * (1.0 + abs(float(lam[0])))
    null_mask = (gamma_b - lam) <= tau
    S_all = float(w @ D.sum(axis=1))
    mass = float(w @ D[:, null_mask].sum(axis=1)) if null_mask.any() else 0.0

    def deriv(g: float) -> float:
        denom = (g - lam) ** 2
        return eps**2 - float(w @ (D / denom).sum(axis=1))

    def deflated_deriv_limit() -> float:
        keep = ~null_mask
        if not keep.any():
            return eps**2
        denom = (gamma_b - lam[keep]) ** 2
        return eps**2 - float(w @ (D[:, keep] / denom).sum(axis=1))

    boundary = mass <= 1e-13 * (1.0 + S_all) and deflated_deriv_limit() >= 0.0
    if boundary:
        gamma = gamma_b
        keep = ~null_mask
        coords = np.zeros_like(Cmat)
        if keep.any():
            coords[:, keep] = Cmat[:, keep] / (gamma_b - lam[keep])
        theta = coords @ V.T
        tail = float(w @ (Cmat[:, keep] * coords[:, keep]).sum(axis=1)) if keep.any() else 0.0
        value = nominal + gamma * eps**2 + tail
    else:
        lo = gamma_b + max(tau * 10.0, 1e-300)
        while deriv(lo) >= 0.0 and lo > gamma_b:
            lo = gamma_b + (lo - gamma_b) * 0.1
            if lo - gamma_b < 1e-15 * (1.0 + gamma_b):
                break
        hi = gamma_b + math.sqrt(max(S_all, 0.0)) / eps + 1.0
        gamma = bisect_root(deriv, (lo, hi), tol=tol, expand="none")
        coords = Cmat / (gamma - lam)
        theta = coords @ V.T
        value = nominal + gamma * eps**2 + float(w @ (Cmat * coords).sum(axis=1))

    alpha = eps**2 - float(w @ (theta**2).sum(axis=1))
    return _QuadDual(
        value=value,
        gamma=gamma,
        theta=theta,
        alpha=alpha,
        boundary=boundary,
        top_value=float(lam[0]),
        top_vector=V[:, 0].copy(),
    )


def wc_risk_quadratic(
    loss: QuadraticLoss,
    samples: DiscreteDistribution,
    eps: float,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Worst-case quadratic loss over a type-2 Euclidean whole-space ball."""
    if samples.dim != loss.dim:
        raise DimensionMismatch(
            f"loss dimension {loss.dim} does not match sample dimension {samples.dim}"
        )
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return expected_loss(loss, samples)
    return _quad_scalar_dual(loss, samples, eps, tol).value


def extremal_quadratic(
    loss: QuadraticLoss,
    samples: DiscreteDistribution,
    eps: float,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtremalReport:
    """Worst-case distribution for the quadratic case.

    Interior dual minimizer: every atom shifts to (gamma I - Q)^{-1}(q + gamma
    xi_i) and the optimum is attained.  Boundary minimizer with leftover
    budget alpha and a positive top eigenvalue: an atom escapes along the top
    eigenvector at rate sqrt(n), carrying the leftover second moment.
    """
    if samples.dim != loss.dim:
        raise DimensionMismatch(
            f"loss dimension {loss.dim} does not match sample dimension {samples.dim}"
        )
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return ExtremalReport(
            kind="attained",
            certified_value=expected_loss(loss, samples),
            distribution=DiscreteDistribution(samples.atoms.copy(), samples.weights.copy()),
        )
    dual = _quad_scalar_dual(loss, samples, eps, tol)
    shifted = samples.atoms + dual.theta
    weights = samples.weights.copy()
    needs_escape = (
        dual.boundary
        and dual.alpha > 1e-9 * (1.0 + eps**2)
        and dual.top_value > 1e-12 * (1.0 + abs(dual.top_value))
    )
    if not needs_escape:
        return ExtremalReport(
            kind="attained",
            certified_value=dual.value,
            distribution=DiscreteDistribution(shifted, weights),
        )
    v = dual.top_vector
    offset = float(dual.theta[0] @ v)
    escape = EscapingAtom(
        origin=shifted[0].copy(),
        direction=v,
        donor=0,
        donor_unit=float(weights[0]),
        rate_kind="sqrt",
        coef=dual.alpha / float(weights[0]),
        offset=offset,
    )
    family = AsymptoticFamily(base_atoms=shifted, base_weights=weights, escapes=(escape,))
    return ExtremalReport(kind="asymptotic", certified_value=dual.value, family=family)


def _extremal_pwa_lp(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
    support: SetSpec,
    tol: Tolerance,
) -> ExtremalReport:
    """Type-1 extremal distribution read off the mass-splitting LP's vertex.

    Pairs with alpha_ij > 0 become attained atoms xi_i + theta_ij/alpha_ij;
    pairs with alpha_ij = 0 but theta_ij != 0 become escaping atoms.  Both
    thresholds act on alpha and the normalized theta of ``_mass_split_lp``,
    so the kind does not depend on the input scale; atoms and escape
    budgets are scaled back by its unit afterwards.
    """
    split = _mass_split_lp(loss, samples, ball, support, tol)
    alpha, theta, unit = split.alpha, split.theta, split.unit
    N, J = alpha.shape
    scale = 1.0 + float(np.max(np.abs(theta))) + ball.eps / unit
    a_tol = 1e-9
    th_tol = 1e-9 * scale

    atoms, weights = [], []
    escapes = []
    donor_of_row = {}
    for i in range(N):
        for j in range(J):
            if alpha[i, j] > a_tol:
                atoms.append(samples.atoms[i] + unit * theta[i, j] / alpha[i, j])
                weights.append(float(samples.weights[i] * alpha[i, j]))
                prev = donor_of_row.get(i)
                if prev is None or weights[prev] < weights[-1]:
                    donor_of_row[i] = len(weights) - 1
    for i in range(N):
        for j in range(J):
            if alpha[i, j] <= a_tol:
                r = float(np.linalg.norm(theta[i, j]))
                if r > th_tol:
                    # The atom carries exactly the LP budget w_i ||theta||
                    # at every n.  Capping the escaping mass at that budget
                    # shrinks the risk deficit (mass times the donor's gap
                    # to the escape piece) to O(budget/n).
                    budget = float(samples.weights[i]) * r * unit
                    mass = min(float(samples.weights[i]), budget)
                    escapes.append(
                        EscapingAtom(
                            origin=samples.atoms[i].copy(),
                            direction=theta[i, j] / r,
                            donor=donor_of_row[i],
                            donor_unit=mass,
                            rate_kind="linear",
                            coef=budget / mass,
                        )
                    )

    base_atoms = np.vstack(atoms)
    base_weights = np.array(weights)
    base_weights = base_weights / base_weights.sum()
    if escapes:
        family = AsymptoticFamily(base_atoms, base_weights, tuple(escapes))
        return ExtremalReport(kind="asymptotic", certified_value=split.value, family=family)
    dist = DiscreteDistribution(base_atoms, base_weights).merged(1e-10 * unit)
    return ExtremalReport(kind="attained", certified_value=split.value, distribution=dist)


def extremal_pwa(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> ExtremalReport:
    """Extremal (or asymptotically extremal) distribution for type-1 balls.

    With a polyhedral ground norm this solves the mass-splitting LP and reads
    the attained atoms and recession escapes off the optimal vertex.  For
    non-polyhedral norms on the whole space, a single affine piece is handled
    by shifting every atom along the dual-norm maximizer; several pieces give
    an escaping-atom family along the steepest piece, matching the closed
    form nominal + eps * Lip.
    """
    support = _check_inputs(loss.dim, samples, ball)
    if ball.p != 1.0:
        raise UnsupportedCombination("extremal construction is for type-1 balls only")
    nominal = expected_loss(loss, samples)
    if ball.eps == 0.0:
        return ExtremalReport(
            kind="attained",
            certified_value=nominal,
            distribution=DiscreteDistribution(samples.atoms.copy(), samples.weights.copy()),
        )

    if ball.norm.is_lp_representable(samples.dim):
        return _extremal_pwa_lp(loss, samples, ball, support, tol)
    if support.kind == "polyhedron":
        raise UnsupportedCombination(
            "polyhedral support needs a polyhedral ground norm for the "
            "extremal construction"
        )

    duals = dual_norm_eval(ball.norm, loss.A)
    j_star = int(np.argmax(duals))
    lip = float(duals[j_star])
    if lip <= 1e-15:
        return ExtremalReport(
            kind="attained",
            certified_value=nominal,
            distribution=DiscreteDistribution(samples.atoms.copy(), samples.weights.copy()),
        )
    direction = norm_subgradient(ball.norm.dual_spec(), loss.A[j_star])
    if loss.n_pieces == 1:
        shifted = samples.atoms + ball.eps * direction[None, :]
        return ExtremalReport(
            kind="attained",
            certified_value=nominal + ball.eps * lip,
            distribution=DiscreteDistribution(shifted, samples.weights.copy()),
        )
    unit = min(float(samples.weights[0]), ball.eps)
    escape = EscapingAtom(
        origin=samples.atoms[0].copy(),
        direction=direction,
        donor=0,
        donor_unit=unit,
        rate_kind="linear",
        coef=ball.eps / unit,
    )
    family = AsymptoticFamily(
        base_atoms=samples.atoms.copy(),
        base_weights=samples.weights.copy(),
        escapes=(escape,),
    )
    return ExtremalReport(
        kind="asymptotic", certified_value=nominal + ball.eps * lip, family=family
    )
