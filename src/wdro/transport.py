"""Exact type-p Wasserstein distances between discrete distributions.

The distance is the optimal value of the transportation problem over
couplings of the two atom sets.  It is solved by the transportation (u-v)
simplex on the N x M cost matrix: the basis is a spanning tree of N + M - 1
cells of the bipartite row/column graph, started by the northwest-corner
rule, and the tree's potentials are the Kantorovich potentials (phi, psi),
normalized so that psi[M-1] = 0 and

    psi_j - phi_i <= ||xi_i - xi'_j||^p   for every atom pair.

Every answer is checked against its own cost matrix before it is returned:
the plan's marginals, dual feasibility of the potentials and the gap
between the primal value and the dual value  psi . w' - phi . w, each
within the rounding that the compared numbers carry, so the checks scale
with the atoms.  The module also provides the Gelbrich lower
bound on the type-2 distance, which depends on the two distributions only
through their means and covariance matrices.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ._validation import as_matrix, as_samples, as_vector, check_weights
from .convex_analysis import NormSpec, norm_eval
from .errors import DimensionMismatch, MaxIterExceeded, NumericalFailure
from .numerics import DEFAULT_TOL, SpectralDecomposition, Tolerance, psd_eig

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
        """Collapse atoms closer than ``tol`` in Euclidean distance.

        Atoms are visited in order; each joins the first earlier
        representative within ``tol`` or becomes a representative itself.
        """
        reps = np.empty_like(self.atoms)
        wts = np.empty(self.n_atoms)
        n = 0
        for x, w in zip(self.atoms, self.weights):
            near = np.flatnonzero(np.linalg.norm(reps[:n] - x, axis=1) <= tol)
            if near.size:
                wts[near[0]] += w
            else:
                reps[n] = x
                wts[n] = w
                n += 1
        return DiscreteDistribution(reps[:n].copy(), wts[:n].copy())


@dataclasses.dataclass(frozen=True, eq=False)
class TransportPlan:
    """Coupling between two atom sets, kept as its cells of positive mass.

    ``cells`` holds the flat indices i * M + j of those cells in the N x M
    coupling of the given ``shape``, and ``mass`` their masses; an optimal
    basic plan has at most N + M - 1 of them, so the plan holds O(N + M)
    numbers.  ``matrix`` builds the dense coupling each time it is read.
    ``marginal_error`` is the largest difference between its row or column
    sums and the two weight vectors, taken on the dense plan it was built
    from.
    """

    cells: np.ndarray
    mass: np.ndarray
    shape: Tuple[int, int]
    marginal_error: float

    @property
    def matrix(self) -> np.ndarray:
        mat = np.zeros(self.shape)
        mat.flat[self.cells] = self.mass
        return mat

    def max_marginal_error(self) -> float:
        return self.marginal_error


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
    """Mean vector and positive semidefinite covariance matrix, and its spectrum."""

    mu: np.ndarray
    sigma: np.ndarray
    spectrum: SpectralDecomposition = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        mu = as_vector(self.mu, "mu")
        sigma, spectrum = psd_eig(as_matrix(self.sigma, "sigma"), rel=1e-10, name="sigma")
        if sigma.shape[0] != mu.size:
            raise DimensionMismatch(
                f"sigma is {sigma.shape[0]}x{sigma.shape[1]} but mu has size {mu.size}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.mu.size


def _pairwise_costs(
    Q: DiscreteDistribution, Qp: DiscreteDistribution, p: float, norm: Optional[NormSpec]
) -> np.ndarray:
    """Costs ||xi_i - xi'_j||^p; the ground norm defaults to the 2-norm."""
    if norm is None:
        norm = NormSpec.p_norm(2)
    return norm_eval(norm, Q.atoms[:, None, :] - Qp.atoms[None, :, :]) ** p


# Pricing runs in two passes, because tree potentials can be far larger
# than the costs of the cells that decide optimality (a near cluster next to
# far atoms), and there C_ij - u_i - v_j cancels almost all of their digits.
# The fast pass prices with the rounded potentials and lets a cell enter only
# where its reduced cost is negative beyond any rounding they can carry:
# below -_ROUNDOFF * C_ij - 2 (_ROUNDOFF + (N + M) eps) max |u, v|.  Each
# potential carries its rounding error lo, recovered by TwoSum in the same
# tree walk that sets the potential.  When the fast pass finds no cell, the
# exact pass forms (C_ij - (u_i + v_j)) - (lo_i + lo_j), whose first sum is
# exact where u_i and v_j cancel, and lets a cell enter below
# -_ROUNDOFF * C_ij less eps^2-sized terms.  Both rules scale with the data,
# and the exact one is relative to the cell's own cost.
_ROUNDOFF = 16 * np.finfo(float).eps
# Consecutive degenerate pivots after which pricing switches to Bland's rule.
_DEGENERATE_STREAK = 50


def _transport_simplex(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, root: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transportation simplex: min <C, X> over couplings X of a and b.

    Nodes 0..N-1 are the rows and N..N+M-1 the columns; a basic cell (i, j)
    is the tree edge between nodes i and N + j.  The tree hangs from column
    ``root``, whose potential is 0, and every other node's potential follows
    from its parent edge through u_i + v_j = C_ij, together with its
    rounding error (TwoSum of that subtraction, less the parent's error), so
    that potential plus error is the alternating path sum of costs up to
    eps^2-sized terms per tree edge.  A pivot brings in the
    cell of most negative reduced cost (net of the allowances described at
    ``_ROUNDOFF``; lowest flat index on ties), pushes mass around the cycle
    it closes, drops the blocking cell of lowest flat index, and rehangs only
    the subtree that the dropped cell cut off.  After a streak of degenerate
    pivots, and until a pivot moves mass again, the entering cell is the
    lowest flat index that may enter (Bland's rule); a cycle consists of
    degenerate pivots only, so the method cannot cycle.  More than
    max(10_000, 50 (N + M)) pivots raise ``MaxIterExceeded``.  Returns the
    plan and the row and column potentials.
    """
    N, M = C.shape
    max_pivots = max(10_000, 50 * (N + M))
    cost = C.tolist()
    adj = [set() for _ in range(N + M)]
    flow = {}

    # Northwest corner: each cell exhausts its row or its column (on a tie,
    # the row) and moves one step, so N + M - 1 cells form a spanning tree.
    i = j = 0
    ra, rb = float(a[0]), float(b[0])
    while True:
        t = min(ra, rb)
        flow[i, j] = t
        adj[i].add(N + j)
        adj[N + j].add(i)
        if i == N - 1 and j == M - 1:
            break
        ra -= t
        rb -= t
        if j == M - 1 or (i < N - 1 and ra <= rb):
            i += 1
            ra = float(a[i])
        else:
            j += 1
            rb = float(b[j])

    parent = [-1] * (N + M)
    depth = [0] * (N + M)
    pot = [0.0] * (N + M)
    lo = [0.0] * (N + M)

    def cell(n: int) -> Tuple[int, int]:
        """The basic cell joining node n to its parent."""
        return (n, parent[n] - N) if n < N else (parent[n], n - N)

    def hang(node: int, par: int) -> list:
        """Hang the component of ``node`` below ``par``; returns its nodes."""
        parent[node] = par
        if par >= 0:
            depth[node] = depth[par] + 1
        members = [node]
        for n in members:  # grows while it is walked: breadth first
            pn = parent[n]
            if pn >= 0:
                # pot = C - pot[pn] and lo = its TwoSum error - lo[pn]
                cij = cost[n][pn - N] if n < N else cost[pn][n - N]
                s = cij - pot[pn]
                z = s - cij
                pot[n], lo[n] = s, (cij - (s - z)) - (pot[pn] + z) - lo[pn]
            dn = depth[n] + 1
            for w in adj[n]:
                if w != pn:
                    parent[w] = n
                    depth[w] = dn
                    members.append(w)
        return members

    root = N + root
    hang(root, -1)
    P = np.array(pot)
    big = float(np.abs(P).max())  # an upper bound on |u|, |v| from here on
    eps = np.finfo(float).eps
    C_up = C * (1.0 + _ROUNDOFF)
    S = np.empty((N, M))

    def price(rows: np.ndarray, cols: np.ndarray) -> int:
        """A cell where S = C_up - rows - cols < 0 (see above), else -1."""
        np.subtract(C_up, rows, out=S)
        np.subtract(S, cols, out=S)
        k = int(np.argmax(S < 0.0) if streak > _DEGENERATE_STREAK else np.argmin(S))
        return k if S.flat[k] < 0.0 else -1

    pivots = 0
    streak = 0
    while True:
        k = -1
        if streak <= _DEGENERATE_STREAK:  # Bland's rule needs every cell that may enter
            W = P - (_ROUNDOFF + (N + M) * eps) * big
            k = price(W[:N, None], W[N:])
        if k < 0:
            W = np.array(lo) - _ROUNDOFF * ((N + M) * eps) ** 2 * big
            k = price(P[:N, None] + P[N:] + W[:N, None], W[N:])
            if k < 0:
                break
        if pivots == max_pivots:
            raise MaxIterExceeded("transport simplex exceeded its pivot budget")
        pivots += 1
        i, j = divmod(k, M)

        # the cycle: both endpoints climb to their common ancestor; the edges
        # met on each side alternate between losing and gaining mass
        x, y = i, N + j
        side_x, side_y = [], []
        while depth[x] > depth[y]:
            side_x.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            side_y.append(y)
            y = parent[y]
        while x != y:
            side_x.append(x)
            x = parent[x]
            side_y.append(y)
            y = parent[y]

        losing = [(cell(n), n) for n in side_x[0::2] + side_y[0::2]]
        theta, leave, q = min((flow[c], c, n) for c, n in losing)
        for c, _ in losing:
            flow[c] = max(flow[c] - theta, 0.0)
        for n in side_x[1::2] + side_y[1::2]:
            flow[cell(n)] += theta
        del flow[leave]
        flow[i, j] = theta
        streak = streak + 1 if theta == 0.0 else 0

        # dropping q's parent edge cuts q's subtree loose; it holds the
        # entering endpoint on q's side of the cycle and rehangs from it
        e, other = (i, N + j) if q in side_x else (N + j, i)
        adj[q].discard(parent[q])
        adj[parent[q]].discard(q)
        adj[e].add(other)
        adj[other].add(e)
        moved = hang(e, other)
        P[moved] = changed = [pot[n] for n in moved]
        big = max(big, max(changed), -min(changed))

    plan = np.zeros((N, M))
    rows, cols = zip(*flow)
    plan[rows, cols] = list(flow.values())
    P += lo
    return plan, P[:N], P[N:]


def _dual_check(C: np.ndarray, a: np.ndarray, b: np.ndarray, duals: DualPotentials) -> KRResult:
    """Pairwise feasibility psi_j - phi_i <= C_ij, cell by cell within
    2 _ROUNDOFF (C_ij + |phi_i| + |psi_j|), the rounding those numbers carry."""
    slack = duals.psi[None, :] - duals.phi[:, None] - C
    excess = slack - 2.0 * _ROUNDOFF * (C + np.abs(duals.phi)[:, None] + np.abs(duals.psi))
    i, j = divmod(int(np.argmax(excess)), C.shape[1])
    dual_value = float(duals.psi @ b - duals.phi @ a)
    if excess[i, j] > 0.0:
        return KRResult(False, dual_value, (i, j), float(slack[i, j]))
    return KRResult(True, dual_value, None, max(float(slack.max()), 0.0))


def wasserstein_p(
    Q: DiscreteDistribution,
    Qp: DiscreteDistribution,
    p: float,
    norm: Optional[NormSpec] = None,
    tol: Tolerance = DEFAULT_TOL,
) -> TransportResult:
    """Type-p Wasserstein distance with optimal plan and dual potentials.

    Solves the transportation problem on the N x M cost matrix with the
    transportation simplex (see ``_transport_simplex``); more than
    max(10_000, 50 (N + M)) pivots raise ``MaxIterExceeded``, a cap set by
    the input alone.  Both atom sets are sorted by their first coordinate
    before the northwest-corner start.  On the line (m = 1) that start is
    the quantile coupling, which is already optimal; in higher dimension it
    begins nearer the optimum than the input order does and saves pivots.
    Optimality is decided with the potentials' rounding errors recovered
    exactly, so a reduced cost counts as negative below -16 eps * C_ij,
    relative to the cell's own cost: the answer does not depend on the
    scale of the atoms, and cells whose costs lie many orders below max C
    are still priced right.  The potentials are pinned by psi[M-1] = 0.

    Before returning, three checks run on the cost matrix, and a failed one
    raises ``NumericalFailure``: the plan's marginals (within
    max(tol.rel_tol, 1e-12) plus the weights' own imbalance); dual
    feasibility psi_j - phi_i <= C_ij of the returned potentials, cell by
    cell within 32 eps * (C_ij + |phi_i| + |psi_j|), the rounding those
    numbers carry; and the gap between primal and dual value, within the
    rounding of the two sums and never more than 1e-8 * (1 + value).
    ``tol.rel_tol`` enters only the marginal check.
    """
    if not isinstance(Q, DiscreteDistribution) or not isinstance(Qp, DiscreteDistribution):
        raise TypeError("wasserstein_p expects DiscreteDistribution inputs")
    if Q.dim != Qp.dim:
        raise DimensionMismatch(f"atom dimensions differ: {Q.dim} vs {Qp.dim}")
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError("order p must be finite and >= 1")

    N, M = Q.n_atoms, Qp.n_atoms
    a, b = Q.weights, Qp.weights
    C = _pairwise_costs(Q, Qp, p, norm)

    rows = np.argsort(Q.atoms[:, 0], kind="stable")
    cols = np.argsort(Qp.atoms[:, 0], kind="stable")
    x_s, u_s, v_s = _transport_simplex(
        C[np.ix_(rows, cols)], a[rows], b[cols], int(np.argmax(cols == M - 1))
    )
    x = np.empty((N, M))
    x[np.ix_(rows, cols)] = x_s
    u, v = np.empty(N), np.empty(M)
    u[rows], v[cols] = u_s, v_s

    # Rounding leaves masses around 1e-17 on cells that should carry none;
    # summed against nonzero costs they lift the value of a zero-cost
    # instance to ~1e-16, which the p-th root amplifies.  Genuine plan
    # entries are masses and sit many orders above this floor.
    x[x < 1e-13 * max(float(x.max(initial=0.0)), 1e-300)] = 0.0
    value = max(float(np.sum(C * x)), 0.0)
    duals = DualPotentials(phi=-u, psi=v)

    # Weights sum to one only within check_weights' slack, and the plan
    # cannot match marginals whose totals differ.
    row_err = np.abs(x.sum(axis=1) - a)
    col_err = np.abs(x.sum(axis=0) - b)
    marginal_error = float(max(row_err.max(), col_err.max()))
    if marginal_error > max(tol.rel_tol, 1e-12) + abs(float(a.sum() - b.sum())):
        raise NumericalFailure(f"transport plan misses its marginals by {marginal_error:.3e}")
    cells = np.flatnonzero(x)
    plan = TransportPlan(cells, x.flat[cells], (N, M), marginal_error)
    abs_u, abs_v = np.abs(u), np.abs(v)
    # The exact pass leaves slack below 16 eps * C_ij; rounding the
    # potentials and recomputing the slack add a few ulps of each term.
    check = _dual_check(C, a, b, duals)
    if not check.is_feasible:
        raise NumericalFailure(
            f"potentials violate psi_j - phi_i <= C_ij at {check.violating_pair} "
            f"by {check.violation:.3e}"
        )
    # On basic cells C_ij = u_i + v_j up to one rounding, so the primal and
    # dual sums differ by their rounding plus the potentials times the
    # plan's marginal errors.
    roundoff = (N + M + 4) * np.finfo(float).eps * (value + abs_u @ a + abs_v @ b)
    roundoff += abs_u @ row_err + abs_v @ col_err
    gap = value - check.dual_value
    if abs(gap) > min(roundoff, 1e-8 * (1.0 + value)):
        raise NumericalFailure(f"transport duality gap {gap:.3e} exceeds tolerance")

    return TransportResult(distance=value ** (1.0 / p), plan=plan, duals=duals)


def kr_verify(
    Q: DiscreteDistribution,
    Qp: DiscreteDistribution,
    norm: Optional[NormSpec],
    duals: DualPotentials,
    p: float = 1.0,
) -> KRResult:
    """Check type-p dual feasibility on the atom set and report the value.

    Feasibility requires ``psi_j - phi_i <= C_ij = ||xi_i - xi'_j||^p`` for
    every pair, within the rounding that cell's numbers carry,
    32 eps * (C_ij + |phi_i| + |psi_j|), as ``wasserstein_p`` checks before
    it returns: an error in a cell whose cost lies far below the largest
    one is seen, and potentials that ``wasserstein_p`` returns pass at any
    scale.  The returned value
    ``psi . w' - phi . w`` is then a certified lower bound on the p-th power
    of the type-p distance.  The check uses only the atoms and the
    potentials, never the solver that produced them.  On violation the
    worst pair and its slack excess are reported instead of raising.
    ``norm=None`` is the 2-norm, as in ``wasserstein_p``.
    """
    if Q.dim != Qp.dim:
        raise DimensionMismatch(f"atom dimensions differ: {Q.dim} vs {Qp.dim}")
    if duals.phi.size != Q.n_atoms or duals.psi.size != Qp.n_atoms:
        raise DimensionMismatch("potential lengths do not match the atom counts")
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError("order p must be finite and >= 1")
    C = _pairwise_costs(Q, Qp, p, norm)
    return _dual_check(C, Q.weights, Qp.weights, duals)


def gelbrich_distance(m1: MomentPair, m2: MomentPair) -> float:
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
    r1 = m1.spectrum.sqrt()
    r2 = m2.spectrum.sqrt()
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
