"""Exact type-p Wasserstein distances between discrete distributions.

The distance is the optimal value of the transportation problem over
couplings of the two atom sets.  It is solved by the transportation (u-v)
simplex on the N x M cost matrix: the basis is a spanning tree of N + M - 1
cells of the bipartite row/column graph, started from a greedy tree on
reduced costs (the northwest corner on the line), and the tree's
potentials are the Kantorovich potentials (phi, psi), normalized so that
psi = 0 at the first heaviest atom of Q' and

    psi_j - phi_i <= ||xi_i - xi'_j||^p   for every atom pair.

Every answer is checked against its own cost matrix before it is returned:
the plan's marginals, dual feasibility of the potentials and the gap
between the primal value and the dual value  psi . w' - phi . w, each
within the rounding that the compared numbers carry, so the checks scale
with the atoms.  The dual value is summed exactly (``math.fsum``), and
with the pin at the heaviest atom a far atom of tiny mass does not make
its terms cancel.  The module also provides the Gelbrich lower
bound on the type-2 distance, which depends on the two distributions only
through their means and covariance matrices.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from ._validation import as_samples, as_vector, check_weights
from .convex_analysis import NormSpec, norm_eval
from .errors import DimensionMismatch, MaxIterExceeded, NumericalFailure
from .numerics import DEFAULT_TOL, SpectralDecomposition, Tolerance, psd_eig, psd_spectrum

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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class MomentPair:
    """Mean vector and positive semidefinite covariance matrix, and its spectrum."""

    mu: np.ndarray
    sigma: np.ndarray
    spectrum: SpectralDecomposition = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        mu = as_vector(self.mu, "mu")
        sigma, spectrum = psd_eig(self.sigma, rel=1e-10, name="sigma")
        if sigma.shape[0] != mu.size:
            raise DimensionMismatch(
                f"sigma is {sigma.shape[0]}x{sigma.shape[1]} but mu has size {mu.size}"
            )
        self._set(mu, sigma, spectrum)

    def _set(self, mu: np.ndarray, sigma: np.ndarray, spectrum: SpectralDecomposition) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def _of_samples(cls, mu: np.ndarray, sigma: np.ndarray) -> "MomentPair":
        """The pair of a checked sample set's mean and symmetrized covariance.

        Both are symmetric and of matching sizes by construction, and finite
        unless a sum overflowed, which makes sigma non-finite; so only that
        and the PSD check of the spectrum run here.
        """
        if not np.isfinite(sigma).all():
            raise ValueError("sigma contains non-finite entries")
        pair = cls.__new__(cls)
        pair._set(mu, sigma, psd_spectrum(sigma, rel=1e-10, name="sigma"))
        return pair

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
# and the exact one is relative to the cell's own cost.  The fast pass
# searches blocks (block search pricing, the default of LEMON's network
# simplex): blocks of whole rows of at least _BLOCK_CELLS cells, so one
# numpy pass prices each, taken in turn from the block after the one that
# gave the last entering cell; the first block with a cell that may enter
# gives its most negative one.  A matrix of fewer than 2 _BLOCK_CELLS cells
# is one block, priced whole.  Only the exact pass, over every cell, ends the
# method, and Bland's rule prices every cell in it.
_EPS = float(np.finfo(float).eps)
_ROUNDOFF = 16 * _EPS
# Consecutive degenerate pivots after which pricing switches to Bland's rule.
_DEGENERATE_STREAK = 50
_BLOCK_CELLS = 4096


def _first_basis(C: np.ndarray, a: np.ndarray, b: np.ndarray, ranked: bool) -> list:
    """The first basis of the transportation simplex: N + M - 1 cells
    (i, j, flow) that form a spanning tree of the row/column graph.

    Each row in turn walks the columns not yet exhausted, in its ranking.  A
    cell takes the smaller remaining mass of its row and column and
    exhausts the row (on a tie too, and when one column is left) unless it
    is the last row, else the column: each cell crosses out one line, and
    the last one both.  ``ranked`` ranks by the reduced cost
    C_ij - min_k C_ik - min_k C_kj; otherwise every row takes the columns in
    order, which is the northwest corner, and the exhausted ones are a prefix.
    """
    N, M = C.shape
    if ranked:
        R = C - C.min(axis=1, keepdims=True) - C.min(axis=0)
        rank = np.argsort(R, axis=1, kind="stable").tolist()
    dead = [False] * M
    left = M
    rb = b.tolist()
    cells = []
    for i, ra in enumerate(a.tolist()):
        for j in rank[i] if ranked else range(M - left, M):
            if dead[j]:
                continue
            t = rb[j] if rb[j] < ra else ra
            cells.append((i, j, t))
            ra -= t
            rb[j] -= t
            if left == 1 or (ra <= rb[j] and i < N - 1):
                break
            dead[j] = True
            left -= 1
    return cells


def _transport_simplex(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, root: int, ranked: bool
) -> Tuple[tuple, np.ndarray, np.ndarray, int]:
    """Transportation simplex: min <C, X> over couplings X of a and b.

    Nodes 0..N-1 are the rows and N..N+M-1 the columns; a basic cell (i, j)
    is the tree edge between nodes i and N + j.  The tree hangs from column
    ``root``, a heaviest column, whose potential is 0, and is kept in
    per-node lists: every other node n holds its parent, its depth, the flow
    ``up[n]`` and cost ``cup[n]`` of its parent edge, its children, its
    potential, which follows from u_i + v_j = C_ij on the parent edge, and
    the potential's rounding error (TwoSum of that subtraction, less the
    parent's error), so that potential plus error is the alternating path
    sum of costs up to eps^2-sized terms per tree edge.  One breadth-first
    walk hangs the first tree, from ``_first_basis``, from ``root``.

    A pivot brings in a cell of negative reduced cost: the most negative one
    of the first block that has one, and the lowest flat index among equals
    (see ``_ROUNDOFF`` for the blocks and the allowances).  It pushes mass
    around the cycle the cell closes, where the row nodes on the row side
    and the column nodes on the column side lose, and drops the blocking
    edge of lowest flat index.  The path from the entering endpoint up to
    the dropped edge reverses, each flow moving one edge down, and only the
    subtree that the dropped edge cut off is walked again.  After a streak
    of degenerate pivots, and until a pivot moves mass again, the entering
    cell is the lowest flat index that may enter (Bland's rule); a cycle
    consists of degenerate pivots only, so the method cannot cycle.  More
    than max(10_000, 50 (N + M)) pivots raise ``MaxIterExceeded``.

    Returns the plan (row indices, column indices and masses of the N + M - 1
    basic cells), the row and column potentials and the pivot count.  The
    masses are not the pivots' running flows: each is the excess of row over
    column weight on the far side of its edge from ``root``, summed exactly
    enough (double-double) to be that sum rounded once.
    """
    N, M = C.shape
    nodes = N + M
    max_pivots = max(10_000, 50 * nodes)
    parent = [-1] * nodes
    depth = [0] * nodes
    up = [0.0] * nodes
    cup = [0.0] * nodes
    kids = [[] for _ in range(nodes)]
    pot = [0.0] * nodes
    lo = [0.0] * nodes

    def reroot(e: int, par: int, f: float, c: float, stop: int) -> None:
        """Hang ``e`` from ``par`` by an edge of flow f and cost c, reversing
        the path from e up to ``stop``, whose parent edge is dropped."""
        n = e
        while True:
            pn, fn, cn = parent[n], up[n], cup[n]
            if pn >= 0:
                kids[pn].remove(n)
            if par >= 0:
                kids[par].append(n)
            parent[n], up[n], cup[n] = par, f, c
            if n == stop:
                return
            par, f, c, n = n, fn, cn, pn

    def hang(members: list, big: float) -> float:
        """Set depth, potential and its error of the given nodes and all
        below them, and return the larger of big and the largest |potential|
        set."""
        for n in members:  # grows while it is walked: breadth first
            pn = parent[n]
            c, q = cup[n], pot[pn]
            s = c - q
            z = s - c
            pot[n], lo[n] = s, (c - (s - z)) - (q + z) - lo[pn]
            depth[n] = depth[pn] + 1
            members += kids[n]
            if s > big:
                big = s
            elif -s > big:
                big = -s
        return big

    # the first tree, hung from ``root`` by one breadth-first walk
    adj = [[] for _ in range(nodes)]
    for i, j, t in _first_basis(C, a, b, ranked):
        c = C.item(i, j)
        adj[i].append((N + j, t, c))
        adj[N + j].append((i, t, c))
    root = N + root
    order = [root]
    seen = [n == root for n in range(nodes)]
    for n in order:  # grows while it is walked: breadth first
        for o, t, c in adj[n]:
            if not seen[o]:
                seen[o] = True
                parent[o], up[o], cup[o] = n, t, c
                kids[n].append(o)
                order.append(o)
    if len(order) < nodes:
        raise NumericalFailure("the first transport basis is not a spanning tree")
    big = hang(list(kids[root]), 0.0)  # an upper bound on |u|, |v| from here on
    fast, exact = _ROUNDOFF + nodes * _EPS, _ROUNDOFF * (nodes * _EPS) ** 2
    C_up = C * (1.0 + _ROUNDOFF)
    S = np.empty((N, M))
    W = np.empty(nodes)  # the potentials less the fast pass's allowance
    # the fast pass prices blocks of whole rows of at least _BLOCK_CELLS
    # cells, from the block after the last one that gave a cell
    nb = max(1, N // -(-_BLOCK_CELLS // M))
    blocks = []
    for t in range(nb):
        r0, r1 = N * t // nb, N * (t + 1) // nb
        blocks.append((r0, W[r0:r1, None], C_up[r0:r1], S[r0:r1]))
    cols = W[N:]
    sub = np.subtract
    start = 0

    def flat(n: int) -> int:
        """Flat index of the cell joining node n to its parent."""
        return n * M + parent[n] - N if n < N else parent[n] * M + n - N

    pivots = 0
    streak = 0
    while True:
        k = -1
        if streak <= _DEGENERATE_STREAK:  # Bland's rule needs every cell that may enter
            sub(pot, fast * big, out=W)
            for t in range(nb):
                r0, rows, Cb, Sb = blocks[(start + t) % nb]
                sub(Cb, rows, out=Sb)
                sub(Sb, cols, out=Sb)
                kb = Sb.argmin()
                if Sb.item(kb) < 0.0:
                    k = r0 * M + int(kb)
                    start = (start + t + 1) % nb
                    break
        if k < 0:
            P = np.array(pot)
            L = np.array(lo) - exact * big
            sub(C_up, P[:N, None] + P[N:] + L[:N, None], out=S)
            sub(S, L[N:], out=S)
            k = int(np.argmax(S < 0.0) if streak > _DEGENERATE_STREAK else S.argmin())
            if S.item(k) >= 0.0:
                break
        if pivots == max_pivots:
            raise MaxIterExceeded("transport simplex exceeded its pivot budget")
        pivots += 1
        i, j = divmod(k, M)

        # the cycle: both endpoints climb to their common ancestor; the edges
        # met on each side alternate between losing and gaining mass, and the
        # losers are the row nodes on the row side and the column nodes on
        # the column side
        x, y = i, N + j
        side_x, side_y = [], []
        dx, dy = depth[x], depth[y]
        while dx > dy:
            side_x.append(x)
            x = parent[x]
            dx -= 1
        while dy > dx:
            side_y.append(y)
            y = parent[y]
            dy -= 1
        while x != y:
            side_x.append(x)
            x = parent[x]
            side_y.append(y)
            y = parent[y]

        losing = side_x[0::2] + side_y[0::2]
        flows = [up[n] for n in losing]
        theta = min(flows)
        if flows.count(theta) == 1:
            q = losing[flows.index(theta)]
        else:
            q = min((n for n, f in zip(losing, flows) if f == theta), key=flat)
        if theta > 0.0:
            for n in losing:
                up[n] -= theta
            for n in side_x[1::2] + side_y[1::2]:
                up[n] += theta
            streak = 0
        else:
            streak += 1

        # dropping q's parent edge cuts q's subtree loose; it holds the
        # entering endpoint on q's side of the cycle and rehangs from it
        e, other = (i, N + j) if q < N else (N + j, i)
        reroot(e, other, theta, C.item(k), q)
        big = hang([e], big)

    # The masses, from the weights: with the tree hung from the heaviest
    # column, each edge carries the excess of row over column weight below
    # it, summed in double-double (TwoSum), so each is its exact value
    # rounded once and the weights' own imbalance falls on the heaviest
    # column.  The pivots' masses carry the rounding of every mass they met,
    # which a far column's cost would multiply.
    order = [root]
    for n in order:  # grows while it is walked: parents before children
        order += kids[n]
    hi = a.tolist() + (-b).tolist()
    er = [0.0] * nodes
    cells, mass = [], []
    for n in reversed(order[1:]):
        pn = parent[n]
        s, q = hi[n], hi[pn]
        t = q + s
        z = t - q
        er[pn] += er[n] + ((q - (t - z)) + (s - z))
        hi[pn] = t
        if n < N:
            cells += (n, pn - N)
            mass.append(s + er[n])
        else:
            cells += (pn, n - N)
            mass.append(-(s + er[n]))
    i_b, j_b = np.array(cells).reshape(-1, 2).T
    P = np.array(pot) + lo
    return (i_b, j_b, np.array(mass)), P[:N], P[N:], pivots


def _excess(C: np.ndarray, w: np.ndarray) -> Tuple[int, int, float]:
    """The cell where u_i + v_j - C_ij most exceeds its rounding allowance
    2 _ROUNDOFF (C_ij + |u_i| + |v_j|), and that excess; w holds u and
    then v."""
    N, M = C.shape
    r = 2.0 * _ROUNDOFF
    B = w - r * np.abs(w)
    E = B[:N, None] + B[N:]
    E -= (1.0 + r) * C
    k = int(E.argmax())
    return k // M, k % M, E.item(k)


def _shifted(u: np.ndarray, v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """u + c and v - c in one array, with c = v at the heaviest column.

    ``kr_verify`` takes potentials in any frame.  Pinned at a far atom,
    every potential is about its distance and a dual sum cancels terms far
    above its value; at the heaviest column, where ``wasserstein_p`` pins
    its own, the potentials that carry mass are small.
    """
    c = v[b.argmax()]
    return np.concatenate((u + c, v - c))


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
    the input alone.  Both atom sets are sorted by their first coordinate.
    On the line (m = 1) the first basis is their northwest corner, the
    quantile coupling, which is already optimal; in higher dimension it is
    greedy on reduced costs (see ``_first_basis``) and takes about 40% fewer
    pivots than the northwest corner.
    Optimality is decided with the potentials' rounding errors recovered
    exactly, so a reduced cost counts as negative below -16 eps * C_ij,
    relative to the cell's own cost: the answer does not depend on the
    scale of the atoms, and cells whose costs lie many orders below max C
    are still priced right.  The simplex's tree hangs from the first
    heaviest column of ``Qp``, where the potentials are pinned,
    psi[Qp.weights.argmax()] = 0, so those that carry mass stay small.
    Each plan mass is an exact sum of weights rounded once, so an atom of
    tiny mass far from the others is moved with all its digits; a mass
    below (N + M) eps times the smaller weight of its cell is rounding
    noise of those weights and is dropped.

    Before returning, three checks run on the cost matrix, and a failed one
    raises ``NumericalFailure``: the plan's marginals (within
    max(tol.rel_tol, 1e-12) plus the weights' own imbalance); dual
    feasibility psi_j - phi_i <= C_ij of the returned potentials, cell by
    cell within 32 eps * (C_ij + |phi_i| + |psi_j|), the rounding those
    numbers carry; and the gap between the primal value and the dual value
    of the returned potentials, summed with ``math.fsum``, within the
    rounding of the two sums and of the potentials, and never more than
    1e-8 * (1 + value).  ``tol.rel_tol`` enters only the marginal check.
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
    (i_b, j_b, mass), u_s, v_s, _ = _transport_simplex(
        C[rows[:, None], cols], a[rows], b[cols], int((cols == b.argmax()).argmax()), Q.dim > 1
    )
    u, v = np.empty(N), np.empty(M)
    u[rows], v[cols] = u_s, v_s

    # Each mass is an exact sum of weights rounded once (see
    # _transport_simplex), and weights normalized apart disagree in their
    # last bits, so a cell may carry that disagreement.  A mass below the
    # rounding that its row's and column's weights carry, (N + M) eps times
    # the smaller of the two, is that noise: against far costs it would move
    # the value, and the p-th root amplifies it near zero.  A tiny weight
    # keeps its whole mass.
    i_b, j_b = rows[i_b], cols[j_b]
    mass[mass < (N + M) * _EPS * np.minimum(a[i_b], b[j_b])] = 0.0
    x = np.zeros((N, M))
    x[i_b, j_b] = mass
    value = max(float((C * x).sum()), 0.0)

    # Weights sum to one only within check_weights' slack, and the plan
    # cannot match marginals whose totals differ.
    ab = np.concatenate((a, b))
    err = np.abs(np.concatenate((x.sum(axis=1), x.sum(axis=0))) - ab)
    marginal_error = float(err.max())
    if marginal_error > max(tol.rel_tol, 1e-12) + abs(float(a.sum() - b.sum())):
        raise NumericalFailure(f"transport plan misses its marginals by {marginal_error:.3e}")

    # Feasibility and the gap are checked on the returned potentials.  The
    # exact pass leaves slack below 16 eps * C_ij; rounding the potentials
    # and recomputing the slack add a few ulps of each term.
    w = np.concatenate((u, v))
    i, j, excess = _excess(C, w)
    if excess > 0.0:
        raise NumericalFailure(
            f"potentials violate psi_j - phi_i <= C_ij at {(i, j)} "
            f"by {w[i] + w[N + j] - C[i, j]:.3e}"
        )
    # On basic cells C_ij = u_i + v_j up to the rounding of the potentials,
    # so the primal and the dual sum differ by their rounding plus the
    # potentials times the plan's marginal errors.
    abs_w = np.abs(w)
    roundoff = (N + M + 4) * _EPS * (value + abs_w @ ab) + abs_w @ err
    gap = value - math.fsum((w * ab).tolist())
    if abs(gap) > min(roundoff, 1e-8 * (1.0 + value)):
        raise NumericalFailure(f"transport duality gap {gap:.3e} exceeds tolerance")

    x = x.ravel()
    cells = x.nonzero()[0]
    plan = TransportPlan(cells, x[cells], (N, M), marginal_error)
    duals = DualPotentials(phi=-u, psi=v)
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
    scale.  The returned value ``psi . w' - phi . w``, summed with
    ``math.fsum`` on the potentials shifted to the heaviest column, is then
    a certified lower bound on the p-th power of the type-p distance,
    accurate also beside a far atom of tiny mass.  The check uses only the
    atoms and the potentials, never the solver that produced them.  On
    violation the worst pair and its slack excess are reported instead of
    raising.
    ``norm=None`` is the 2-norm, as in ``wasserstein_p``.
    """
    if Q.dim != Qp.dim:
        raise DimensionMismatch(f"atom dimensions differ: {Q.dim} vs {Qp.dim}")
    if duals.phi.size != Q.n_atoms or duals.psi.size != Qp.n_atoms:
        raise DimensionMismatch("potential lengths do not match the atom counts")
    if not (p >= 1.0 and math.isfinite(p)):
        raise ValueError("order p must be finite and >= 1")
    C = _pairwise_costs(Q, Qp, p, norm)
    w = np.concatenate((-duals.phi, duals.psi))
    i, j, excess = _excess(C, w)
    slack = duals.psi[j] - duals.phi[i] - C[i, j]
    shifted = _shifted(w[: Q.n_atoms], duals.psi, Qp.weights)
    dual_value = math.fsum((shifted * np.concatenate((Q.weights, Qp.weights))).tolist())
    if excess > 0.0:
        return KRResult(False, dual_value, (i, j), float(slack))
    return KRResult(True, dual_value, None, max(float((duals.psi - duals.phi[:, None] - C).max()), 0.0))


def gelbrich_distance(m1: MomentPair, m2: MomentPair) -> float:
    """Gelbrich distance between two mean/covariance pairs.

    Equals sqrt(||mu - mu'||^2 + Tr[S + S' - 2 (S^{1/2} S' S^{1/2})^{1/2}])
    and lower-bounds the type-2 Wasserstein distance between any two
    distributions carrying these moments.  The trace term is the least
    ||S^{1/2} - S'^{1/2} U||_F^2 over orthogonal U, attained at the polar
    factor U = Q P' of S^{1/2} S'^{1/2} = P diag(s) Q' (one SVD), and it is
    computed as that sum of squares: no difference of traces cancels, so
    the distance keeps its relative accuracy when the pairs nearly agree.
    """
    if m1.dim != m2.dim:
        raise DimensionMismatch(f"moment dimensions differ: {m1.dim} vs {m2.dim}")
    r1 = m1.spectrum.sqrt()
    r2 = m2.spectrum.sqrt()
    P, _, Qt = np.linalg.svd(r1 @ r2)
    gap = r1 - r2 @ (Qt.T @ P.T)
    return math.hypot(float(np.linalg.norm(m1.mu - m2.mu)), float(np.sqrt((gap * gap).sum())))


def moments(Q: DiscreteDistribution) -> MomentPair:
    """Weighted mean and covariance of a discrete distribution."""
    mu = Q.weights @ Q.atoms
    centered = Q.atoms - mu
    sigma = (centered * Q.weights[:, None]).T @ centered
    return MomentPair(mu, 0.5 * (sigma + sigma.T))
