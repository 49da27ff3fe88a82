"""Worst-case expected loss over Wasserstein balls around discrete samples.

Two loss families are covered exactly at desk scale:

* piecewise-affine (max of affine pieces) losses: on the whole space in
  closed form for type-1 and type-inf balls and through a scalar dual for
  type 2; on a polyhedral support, for type-1 and type-inf balls, through
  one small problem per (sample, piece) cell.  On a box (every face +-e_k)
  under alpha ||.||_1 or alpha ||.||_inf, or any norm on the line, the box
  separates by coordinate and each cell has a closed form; every other
  polyhedron or polyhedral norm solves the cells as LPs, all as one
  ``LPStack`` that shares its rows;
* indefinite quadratic losses ``xi' Q xi + 2 q' xi`` for type-2 balls with
  Euclidean norm and whole-space support, through a scalar dual whose
  multiplier ``numerics.quadratic_multiplier`` shares with the Gelbrich dual.

Each worst-case value comes with a matching extremal construction: either
an attained discrete distribution inside the ball, or a one-parameter
family of distributions whose risk converges to the value while an atom
escapes to infinity.  Nominal risk plus eps times the Lipschitz modulus is
a cheap upper bound on the exact value.  The input alone (support, ground
norm and ball order) picks every path.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._validation import as_samples, as_vector, check_symmetric, radius
from .convex_analysis import (
    NormSpec,
    SetSpec,
    dual_norm_eval,
    norm_epigraph_rows,
    norm_eval,
    norm_subgradient,
)
from .errors import (
    DimensionMismatch,
    NumericalFailure,
    UnsupportedCombination,
    UnsupportedSupport,
)
from .numerics import SpectralDecomposition, monotone_root, quadratic_multiplier
from .simplex import LPStack
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
    "wc_risk_quadratic",
    "extremal_pwa",
    "extremal_quadratic",
]


@dataclasses.dataclass(frozen=True, eq=False)
class BallSpec:
    """Wasserstein ball: radius, order p in {1, 2, inf}, ground norm, support.

    The radius must be finite and nonnegative.  ``support=None`` means the
    whole space.  Only whole-space and polyhedral
    supports are accepted; other set kinds raise UnsupportedSupport.
    """

    eps: float
    p: float
    norm: NormSpec = None
    support: Optional[SetSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "eps", radius(self.eps))
        if self.p not in (1.0, 2.0, math.inf):
            raise ValueError("ball order p must be 1, 2 or inf")
        if self.norm is None:
            object.__setattr__(self, "norm", NormSpec.p_norm(2))
        if self.support is not None and self.support.kind not in ("whole", "polyhedron"):
            raise UnsupportedSupport(
                f"support kind {self.support.kind!r} is not supported; "
                "use the whole space or a polyhedron"
            )
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
    Q is decomposed once, here, and kept as ``spectrum``.
    """

    def __init__(self, Q, q):
        self.Q = check_symmetric(Q, tol=1e-10, name="Q")
        self.q = as_vector(q, "q")
        if self.Q.shape[0] != self.q.size:
            raise DimensionMismatch("Q and q dimensions differ")
        self.spectrum = SpectralDecomposition.of(self.Q)

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


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class ExtremalReport:
    """Worst-case distribution: attained exactly or as an escaping family.

    An attained type-1 extremal of the cells also carries ``sources``, the
    sample each atom's mass moved from: that coupling's cost bounds its W1
    distance to the samples with no transport solve.
    """

    kind: str
    certified_value: float
    distribution: Optional[DiscreteDistribution] = None
    family: Optional[AsymptoticFamily] = None
    sources: Optional[np.ndarray] = None


def _check_inputs(loss_dim: int, samples: DiscreteDistribution, ball: BallSpec) -> SetSpec:
    if samples.dim != loss_dim:
        raise DimensionMismatch(
            f"loss dimension {loss_dim} does not match sample dimension {samples.dim}"
        )
    support = ball.support_for(samples.dim)
    outside = ~support.contains(samples.atoms)
    if outside.any():
        raise ValueError(f"sample atom {outside.argmax()} lies outside the support set")
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


def _faces(support: SetSpec, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The support's faces C_r / ||C_r|| and each sample's distance to them,
    (d_r - C_r xi_i) / ||C_r||: cells are stated relative to their sample."""
    if support.kind != "polyhedron":
        return np.zeros((0, atoms.shape[1])), np.zeros((atoms.shape[0], 0))
    C, d = support.C_matrix(), support.d_vector()
    size = np.linalg.norm(C, axis=1)
    C, d, size = C[size > 0], d[size > 0], size[size > 0]
    # atoms accepted by the support's membership tolerance sit on its faces
    return C / size[:, None], np.maximum((d - atoms @ C.T) / size, 0.0)


def _cell_stack(norm: NormSpec, faces, slack, A, radius: Optional[float] = None):
    """One LP per (row i of slack, piece j) over (theta, the norm rows'
    auxiliaries[, t]): min -a_j' theta s.t. faces theta <= slack_i and
    ||theta|| <= radius, or ||theta|| <= t when radius is None (t's cost,
    the last column, is left to the caller).  Returns the stack and costs."""
    N, m = len(slack), A.shape[1]
    G, H, g = norm_epigraph_rows(norm, m)
    head = np.column_stack([G, H] if radius is not None else [G, H, g])
    rows = np.vstack([head, np.pad(faces, ((0, 0), (0, head.shape[1] - m)))])
    b = np.hstack([np.broadcast_to(-(radius or 0.0) * g, (N, g.size)), slack])
    cost = np.zeros((N * A.shape[0], rows.shape[1]))
    cost[:, :m] = -np.tile(A, (N, 1))
    return LPStack(rows, np.repeat(b, A.shape[0], axis=0), m), cost


def _with_zero(x: np.ndarray, before: bool = True) -> np.ndarray:
    """x with a 0 put before the first entry of its last axis, or after the last."""
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.concatenate([zero, x] if before else [x, zero], axis=-1)


class _BoxCells:
    """The cells on a box under alpha ||.||_1 or alpha ||.||_inf, in closed form.

    The box separates by coordinate: cell (i, j) moves coordinate k toward
    sign(a_jk) by t_k in [0, room_ijk], sample i's slack to its face on that
    side (inf where the side has none), for a gain of sum_k |a_jk| t_k and a
    norm of alpha sum_k t_k or alpha max_k t_k.
    """

    def __init__(self, q: float, alpha: float, A: np.ndarray, room: np.ndarray):
        self.q, self.alpha = q, alpha
        self.sign, self.a, self.room = np.sign(A), np.abs(A), room  # room is (N, J, m)

    def _values(self, t: np.ndarray, penalty: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """The cells' values at moves t, less penalty times their norms, and theta."""
        value = (self.a * t).sum(axis=-1)
        if penalty:
            value -= penalty * (t.sum(axis=-1) if self.q == 1.0 else t.max(axis=-1, initial=0.0))
        return value, self.sign * t

    def ball(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """sup a_j' theta over ||theta|| <= radius: every coordinate up to
        radius / alpha (inf-norm), or a fractional knapsack in decreasing
        |a_jk|, coordinate order breaking ties (1-norm)."""
        reach = radius / self.alpha
        if self.q != 1.0:
            return self._values(np.minimum(reach, self.room))
        order = np.broadcast_to(np.argsort(-self.a, axis=-1, kind="stable"), self.room.shape)
        room = np.take_along_axis(self.room, order, axis=-1)
        # the budget each coordinate finds left, -inf past an infinite room
        left = reach - _with_zero(np.cumsum(room[..., :-1], axis=-1))
        t = np.empty_like(room)
        np.put_along_axis(t, order, np.clip(left, 0.0, room), axis=-1)
        return self._values(t)

    @functools.cached_property
    def _steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's candidate moves t under the inf-norm, 0 and then its
        finite rooms in increasing order, and the slope of its gain right of
        each: what the rooms beyond keep.  The last finite candidate gets
        slope -inf (beyond it only rounding keeps the slope up), the rest inf."""
        order = np.argsort(self.room, axis=-1, kind="stable")
        room = _with_zero(np.take_along_axis(self.room, order, axis=-1))
        a = np.take_along_axis(np.broadcast_to(self.a, order.shape), order, axis=-1)
        right = np.cumsum(_with_zero(a, before=False)[..., ::-1], axis=-1)[..., ::-1]
        at, last = np.arange(room.shape[-1]), np.isfinite(room).sum(axis=-1, keepdims=True) - 1
        return room, np.where(at < last, right, np.where(at == last, -np.inf, np.inf))

    def type1(self, g: float, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h_ij(g) = sup a_j' theta - g ||theta|| and its maximizer, h = inf
        where g lies below piece j's recession threshold by more than its
        rounding.  Otherwise a cell gains nothing from an infinite room, whose
        slope is at most g alpha."""
        slope = g * self.alpha
        if self.q == 1.0:
            # each coordinate to its face where |a_jk| > g alpha
            t = np.where((self.a > slope) & np.isfinite(self.room), self.room, 0.0)
        else:
            # t* = the first candidate right of which the gain's slope is at most g alpha
            steps, right = self._steps
            first = (right <= slope).argmax(axis=-1)[..., None]
            t = np.minimum(np.take_along_axis(steps, first, axis=-1), self.room)
        h, theta = self._values(t, slope)
        h[:, thresholds > g * (1.0 + 2.0**-50)] = np.inf
        return h, theta


def _box_cells(norm: NormSpec, faces, slack, A) -> Optional[_BoxCells]:
    """Closed-form cells when every face is +-e_k and the ground norm is
    alpha ||.||_1 or alpha ||.||_inf, or any norm on the line; else None."""
    m = faces.shape[1]
    if m == 1:
        q, alpha = 1.0, float(norm_eval(norm, np.ones(1)))
    elif norm.kind in ("p", "scaled") and norm.p in (1.0, math.inf):
        q, alpha = norm.p, norm.alpha
    else:
        return None
    if np.any((faces != 0.0).sum(axis=1) != 1):
        return None
    # each face's coordinate, up the coordinate first, then down it
    side = np.abs(faces).argmax(axis=1) + m * (faces.sum(axis=1) < 0.0)
    # the tightest face on each side of each coordinate, inf where it has none
    on_side = side[:, None, None] == np.arange(2 * m)
    rooms = np.where(on_side, slack.T[:, :, None], np.inf).min(axis=0, initial=np.inf)
    up, down = rooms[:, None, :m], rooms[:, None, m:]
    return _BoxCells(q, alpha, A, np.where(A > 0, up, np.where(A < 0, down, 0.0)))


class _StackCells:
    """The cells as LPs over the faces and the norm's epigraph rows, solved
    together as one LPStack; the methods are those of _BoxCells."""

    def __init__(self, norm: NormSpec, faces, slack, A):
        self.norm, self.faces, self.slack, self.A = norm, faces, slack, A

    def _read(self, x: np.ndarray, objective: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        (N, _), (J, m) = self.slack.shape, self.A.shape
        return -objective.reshape(N, J), x[:, :m].reshape(N, J, m)

    def ball(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        stack, cost = _cell_stack(self.norm, self.faces, self.slack, self.A, radius)
        return self._read(*stack.solve(cost))

    @functools.cached_property
    def _type1_stack(self):
        return _cell_stack(self.norm, self.faces, self.slack, self.A)

    def type1(self, g: float, thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One stack solve from the previous bases; unbounded cells read inf."""
        stack, cost = self._type1_stack
        cost[:, -1] = g
        return self._read(*stack.solve(cost))


def _cells(norm: NormSpec, faces, slack, A) -> _BoxCells | _StackCells:
    """The (sample, piece) cells: in closed form on a box, else as LPs."""
    box = _box_cells(norm, faces, slack, A)
    return box if box is not None else _StackCells(norm, faces, slack, A)


class _Selection(NamedTuple):
    """Every sample's move toward its best piece at multiplier gamma: its line
    sum(gain - g spend) + g eps lies below F - nominal and touches it at gamma."""

    gamma: float
    theta: np.ndarray  # (N, m) the moves
    gain: np.ndarray  # w_i [l_j(xi_i) + a_j' theta_i - l(xi_i)], j the sample's piece
    spend: np.ndarray  # w_i ||theta_i||

    def line(self, g: float) -> np.ndarray:
        return self.gain - g * self.spend


class _Type1(NamedTuple):
    value: float  # the primal value, attained by the extremal distribution
    upper: float  # the least F evaluated: the dual bound
    gamma: float  # the multiplier where the bracket lines cross
    lo: _Selection  # spends more than eps, or the one selection of a boundary optimum
    hi: Optional[_Selection]  # spends at most eps; None at a boundary optimum
    recession: np.ndarray  # (J, m) each piece's recession direction, or zeros
    thresholds: np.ndarray  # (J,) each piece's recession threshold


_GAP_TOL = 1e-11  # the cutting plane stops within this share of the gain above nominal
_NUDGE = 2.0**-44  # cuts are evaluated this much (relatively) right of the crossing
_MAX_CUTS = 200
_RECESSION_TOL = 1e-9  # thresholds below this share of the Lipschitz modulus are rounding


def _type1_cells(
    loss: PiecewiseAffineLoss, samples: DiscreteDistribution, ball: BallSpec, support: SetSpec
) -> _Type1:
    """Minimize F(g) = g eps + sum_i w_i max_j [l_j(xi_i) + h_ij(g)] over g >= 0.

    h_ij(g) = sup a_j' theta - g ||theta|| over theta in Xi - xi_i is a cell,
    finite exactly from the recession threshold of piece j on.  F is convex
    and piecewise linear, so a cutting plane on exact values ends; each cut
    solves every cell, in closed form on a box, else as one stack.  The mixture
    of the two bracket selections that spends eps exactly is worth the
    lines' value where they cross; the plane stops when F is no higher.
    Left of the optimum F can be as steep as the support is wide, right of
    it no steeper than eps, so cuts are made a few ulps right of the crossing.
    """
    N, m = samples.n_atoms, samples.dim
    w, eps, norm = samples.weights, ball.eps, ball.norm
    L = loss.piece_table(samples.atoms)
    gaps = L - L.max(axis=1, keepdims=True)  # each piece below the sample's loss
    faces, slack = _faces(support, samples.atoms)
    thresholds, recession = _cells(norm, faces, np.zeros((1, len(faces))), loss.A).ball(1.0)
    # F is finite from the largest recession threshold on; thresholds within
    # rounding of 0 count as 0
    lip = lipschitz_modulus_pwa(loss, norm)
    thresholds = np.where(thresholds[0] > _RECESSION_TOL * lip, thresholds[0], 0.0)
    cells = _cells(norm, faces, slack, loss.A)
    at = np.arange(N)

    def select(gamma: float) -> tuple[float, _Selection]:  # F(gamma) - nominal, and its selection
        h, thetas = cells.type1(gamma, thresholds)
        if np.any(np.isinf(h)):
            raise NumericalFailure("a worst-case cell is unbounded above its recession threshold")
        table = gaps + h
        j = table.argmax(axis=1)
        theta = thetas[at, j]
        gain = w * (gaps[at, j] + np.einsum("ik,ik->i", loss.A[j], theta))
        return gamma * eps + float(w @ table[at, j]), _Selection(gamma, theta, gain, w * norm_eval(norm, theta))

    def done(value, upper, gamma, lo, hi):
        nominal = expected_loss(loss, samples)
        return _Type1(float(nominal + value), float(nominal + upper), gamma, lo, hi, recession[0], thresholds)

    upper, lo = select(float(thresholds.max()))
    if lo.spend.sum() <= eps:
        return done(lo.line(lo.gamma).sum() + lo.gamma * eps, upper, lo.gamma, lo, None)
    # at the Lipschitz modulus every cell is solved by theta = 0
    hi = _Selection(lip, np.zeros((N, m)), np.zeros(N), np.zeros(N))
    upper = min(upper, lip * eps)
    for _ in range(_MAX_CUTS):
        s_lo, s_hi = lo.spend.sum(), hi.spend.sum()
        gamma = min(max((lo.gain.sum() - hi.gain.sum()) / (s_lo - s_hi), lo.gamma), hi.gamma)
        share = (eps - s_hi) / (s_lo - s_hi)
        value = (1.0 - share) * hi.gain.sum() + share * lo.gain.sum()
        if upper - value <= _GAP_TOL * value:
            return done(value, upper, gamma, lo, hi)
        at_cut, cut = select(min(gamma * (1.0 + _NUDGE), hi.gamma))
        upper = min(upper, at_cut)
        lo, hi = (cut, hi) if cut.spend.sum() > eps else (lo, cut)
    raise NumericalFailure("the worst-case cutting plane did not converge")


def _wc_pwa_p2_whole(
    loss: PiecewiseAffineLoss, samples: DiscreteDistribution, ball: BallSpec
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

    def crossing(g: float) -> tuple[float, float]:
        # the derivative eps^2 - K / (4 g^2), with K the weighted D of the
        # active pieces, as 2 g / sqrt(K) - 1 / eps: linear between switches
        # of the active pieces, and -1 / eps at g = 0
        k = float(w @ D[np.argmax(4.0 * g * L + D[None, :], axis=1)])
        if k == 0.0:
            return math.inf, 0.0
        return 2.0 * g / math.sqrt(k) - 1.0 / ball.eps, 2.0 / math.sqrt(k)

    # K <= d_max, so the derivative is nonnegative from sqrt(d_max) / (2 eps)
    # on; at twice that, crossing >= 1 / eps, a sign rounding cannot erase
    g = monotone_root(crossing, 0.0, math.sqrt(d_max) / ball.eps)
    return g * ball.eps**2 + float(w @ (L + D[None, :] / (4.0 * g)).max(axis=1))


def _wc_pwa(
    loss: PiecewiseAffineLoss, samples: DiscreteDistribution, ball: BallSpec
) -> tuple[float, str, Optional[_Type1]]:
    """The value, its path ("closed_form", "scalar_dual" or "cells") and the
    type-1 cutting plane's result."""
    support = _check_inputs(loss.dim, samples, ball)
    if ball.eps == 0.0:
        return expected_loss(loss, samples), "closed_form", None
    if support.kind == "whole":
        if ball.p == 1.0:
            value = expected_loss(loss, samples) + ball.eps * lipschitz_modulus_pwa(loss, ball.norm)
            return value, "closed_form", None
        if ball.p == math.inf:
            duals = dual_norm_eval(ball.norm, loss.A)
            per_sample = (loss.piece_table(samples.atoms) + ball.eps * duals).max(axis=1)
            return float(samples.weights @ per_sample), "closed_form", None
        return _wc_pwa_p2_whole(loss, samples, ball), "scalar_dual", None

    if ball.p == 2.0:
        raise UnsupportedCombination(
            "type-2 balls over a proper polyhedral support need a conic "
            "reformulation and are not supported"
        )
    if not ball.norm.is_lp_representable(samples.dim):
        raise UnsupportedCombination(
            "the ground norm is not polyhedral; this ball/support "
            "combination has no LP reformulation"
        )
    if ball.p == 1.0:
        cells = _type1_cells(loss, samples, ball, support)
        return cells.value, "cells", cells
    # type inf: every sample moves by at most eps on its own
    sigma, _ = _cells(ball.norm, *_faces(support, samples.atoms), loss.A).ball(ball.eps)
    L = loss.piece_table(samples.atoms) + sigma
    return float(samples.weights @ L.max(axis=1)), "cells", None


def wc_risk_pwa(loss: PiecewiseAffineLoss, samples: DiscreteDistribution, ball: BallSpec) -> float:
    """Exact worst-case expected max-affine loss over a Wasserstein ball.

    The instance picks the path.  Whole-space supports use closed forms
    (type-1: nominal plus eps times the Lipschitz modulus; type-inf:
    per-sample sup; type-2: scalar dual).  Polyhedral supports solve one
    small cell per (sample, piece), which requires p in {1, inf} and a
    polyhedral ground norm: type inf in one pass over the cells, type 1 by
    a cutting plane on the budget multiplier (the one ``extremal_pwa``
    reads its distribution from).  A box support (every face +-e_k) under
    ``NormSpec.p_norm(1 | inf)``, ``scaled(alpha, 1 | inf)`` or any norm in
    dimension 1 takes each cell in closed form; other polyhedra,
    half-planes, weighted and block norms solve the cells as LPs, one
    ``LPStack`` that shares its rows.
    """
    return _wc_pwa(loss, samples, ball)[0]


class _QuadDual(NamedTuple):
    value: float
    theta: np.ndarray  # row i: the shift of atom i
    alpha: float  # the budget the shifts leave, eps^2 - sum_i w_i ||theta_i||^2
    boundary: bool  # gamma = max(0, lam_max)


def _quad_scalar_dual(loss: QuadraticLoss, samples: DiscreteDistribution, eps: float) -> _QuadDual:
    """Minimize g(gamma) = nominal + gamma eps^2 + sum_i w_i sum_k c_ik^2/(gamma - lam_k)
    over gamma >= max(0, lam_max), where c_i = V' (q + Q xi_i).

    g'(gamma) = eps^2 - sum_i w_i ||theta_i(gamma)||^2 is increasing, so the
    minimizer is either an interior root of g' or the boundary, as
    ``numerics.quadratic_multiplier`` decides.
    """
    lam, V = loss.spectrum.values, loss.spectrum.vectors
    w = samples.weights
    Cmat = (loss.q + samples.atoms @ loss.Q) @ V  # rows c_i
    gamma, inv = quadratic_multiplier(lam, w @ Cmat**2, eps)
    coords = Cmat * inv
    theta = coords @ V.T
    value = expected_loss(loss, samples) + gamma * eps**2 + float(w @ (Cmat * coords).sum(axis=1))
    alpha = eps**2 - float(w @ (theta**2).sum(axis=1))
    return _QuadDual(value, theta, alpha, gamma == max(0.0, float(lam[0])))


def _check_quadratic(loss: QuadraticLoss, samples: DiscreteDistribution, eps: float) -> float:
    if samples.dim != loss.dim:
        raise DimensionMismatch(
            f"loss dimension {loss.dim} does not match sample dimension {samples.dim}"
        )
    return radius(eps)


def wc_risk_quadratic(loss: QuadraticLoss, samples: DiscreteDistribution, eps: float) -> float:
    """Worst-case quadratic loss over a type-2 Euclidean whole-space ball: the
    Gelbrich worst case at the samples' moments, when their covariance is
    nonsingular.  The radius eps must be finite and nonnegative."""
    eps = _check_quadratic(loss, samples, eps)
    if eps == 0.0:
        return expected_loss(loss, samples)
    return _quad_scalar_dual(loss, samples, eps).value


def extremal_quadratic(
    loss: QuadraticLoss, samples: DiscreteDistribution, eps: float
) -> ExtremalReport:
    """Worst-case distribution for the quadratic case.

    Interior dual minimizer: every atom shifts to (gamma I - Q)^{-1}(q + gamma
    xi_i) and the optimum is attained.  Boundary minimizer with leftover
    budget alpha and a positive top eigenvalue: an atom escapes along the top
    eigenvector at rate sqrt(n), carrying the leftover second moment.  The
    radius eps must be finite and nonnegative.
    """
    eps = _check_quadratic(loss, samples, eps)
    if eps == 0.0:
        return ExtremalReport(
            kind="attained",
            certified_value=expected_loss(loss, samples),
            distribution=DiscreteDistribution(samples.atoms.copy(), samples.weights.copy()),
        )
    dual = _quad_scalar_dual(loss, samples, eps)
    shifted = samples.atoms + dual.theta
    weights = samples.weights.copy()
    lam = loss.spectrum.values
    needs_escape = (
        dual.boundary
        and dual.alpha > 1e-9 * eps**2
        and lam[0] > 1e-12 * np.abs(lam).max()
    )
    if not needs_escape:
        return ExtremalReport(
            kind="attained",
            certified_value=dual.value,
            distribution=DiscreteDistribution(shifted, weights),
        )
    v = loss.spectrum.vectors[:, 0].copy()
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


def _type1_extremal(
    loss: PiecewiseAffineLoss, samples: DiscreteDistribution, ball: BallSpec, cells: _Type1
) -> ExtremalReport:
    """Worst-case distribution from the cutting plane's selections.

    Samples switch from hi's move to lo's one at a time; the one at which
    the budget reaches eps splits its mass between its two moves: N + 1
    atoms (Gao and Kleywegt 2016).  At a boundary optimum every sample takes
    its one move, and where a recession threshold binds the leftover budget
    escapes along that piece's recession direction.
    """
    atoms, w, eps = samples.atoms, samples.weights, ball.eps
    lo, hi = cells.lo, cells.hi
    weights, sources = w.copy(), np.arange(len(w))
    if hi is None:
        moved, left = atoms + lo.theta, eps - lo.spend.sum()
        if lo.gamma > 0.0 and left > 0.0:
            j = int(np.argmax(cells.thresholds))
            # the donor whose mass loses least on the escaping piece
            donor = int(np.argmin(loss.value(moved) - loss.piece_table(atoms)[:, j]))
            mass = min(float(w[donor]), left)
            direction = cells.recession[j] / norm_eval(ball.norm, cells.recession[j])
            escape = EscapingAtom(atoms[donor].copy(), direction, donor, mass, "linear", left / mass)
            family = AsymptoticFamily(moved, weights, (escape,))
            return ExtremalReport(kind="asymptotic", certified_value=cells.value, family=family)
    else:
        # samples in descending order of how much lo's line beats hi's at
        # gamma: those differences sum to zero there, so every prefix is
        # worth at least hi, and the mixture at least the value
        order = np.argsort(hi.line(cells.gamma) - lo.line(cells.gamma), kind="stable")
        spent = hi.spend.sum() + np.append(0.0, np.cumsum((lo.spend - hi.spend)[order]))
        reach = np.flatnonzero(spent[1:] >= eps)
        k = int(reach[0]) if reach.size else len(w) - 1
        step = spent[k + 1] - spent[k]
        share = min(max((eps - spent[k]) / step, 0.0), 1.0) if step > 0.0 else 0.0
        theta = hi.theta.copy()
        theta[order[:k]] = lo.theta[order[:k]]
        split = order[k]
        moved = np.vstack([atoms + theta, atoms[split] + lo.theta[split]])
        # the moved part keeps share * w[split] to the last bit and the
        # weights are not renormalized: a part moved far away must fill
        # exactly the deficit it leaves, or W1 pays the difference times
        # the distance
        weights = np.append(w, share * w[split])
        weights[split] -= weights[-1]
        sources = np.append(sources, split)
    keep = weights > 0.0
    dist = DiscreteDistribution(moved[keep], weights[keep])
    return ExtremalReport(kind="attained", certified_value=cells.value, distribution=dist, sources=sources[keep])


def extremal_pwa(
    loss: PiecewiseAffineLoss,
    samples: DiscreteDistribution,
    ball: BallSpec,
) -> ExtremalReport:
    """Extremal (or asymptotically extremal) distribution for type-1 balls.

    With a polyhedral ground norm this runs the cells' cutting plane (cells
    in closed form on a box under a 1- or inf-norm, possibly scaled, or any
    norm on the line; one ``LPStack`` otherwise, as in ``wc_risk_pwa``) and
    mixes its two bracket selections so that the budget is spent exactly:
    at most N + 1 atoms whose expected loss is the value, certified by the
    dual objective at the multiplier.  The report's ``sources`` names the
    sample each atom's mass moved from.  Where a recession threshold binds,
    the leftover budget escapes along that piece's recession direction.
    For non-polyhedral norms on the whole space, a single affine piece is
    handled by shifting every atom along the dual-norm maximizer; several
    pieces give an escaping-atom family along the steepest piece, matching
    the closed form nominal + eps * Lip.
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
        return _type1_extremal(loss, samples, ball, _type1_cells(loss, samples, ball, support))
    if support.kind == "polyhedron":
        raise UnsupportedCombination(
            "polyhedral support needs a polyhedral ground norm for the "
            "extremal construction"
        )

    duals = dual_norm_eval(ball.norm, loss.A)
    j_star = int(np.argmax(duals))
    lip = float(duals[j_star])
    if lip == 0.0:
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
