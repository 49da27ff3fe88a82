"""Dual norms and support functions.

These are the closed-form ingredients the worst-case-risk reformulations are
assembled from: the dual-norm table (p-norms, scalings, positive-definite
weightings, separable block composites), the epigraph rows of polyhedral
norms as numpy blocks for the LPs, and scale-normalized support functions
of whole space, norm balls, polyhedra, and their intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._validation import as_matrix, as_vector, integer, radius as _radius
from .errors import (
    DimensionMismatch,
    InfeasibleSet,
    UnsupportedCombination,
)
from .numerics import psd_eig
from .simplex import LPStack

__all__ = [
    "NormSpec",
    "SetSpec",
    "dual_norm_eval",
    "norm_eval",
    "norm_subgradient",
    "support_function_eval",
    "conjugate_exponent",
]

_FEAS_TOL = 1e-9  # emptiness, relative to a support LP's scaled rows


def conjugate_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1; maps 1 <-> inf and fixes 2."""
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^m.

    kind is one of "p" (plain p-norm), "scaled" (alpha * p-norm), "weighted"
    (x -> ||A x||_p with A symmetric positive definite), "blocks" (sum of
    block norms), "blocks_max" (max of block norms; arises as the dual of
    "blocks" and closes the family under duality).
    """

    kind: str = "p"
    p: float = 2.0
    alpha: float = 1.0
    matrix: tuple | None = None  # stored as nested tuples to stay hashable
    blocks: tuple["NormSpec", ...] | None = None
    sizes: tuple[int, ...] | None = None

    @staticmethod
    def p_norm(p: float) -> "NormSpec":
        if not (p >= 1.0):
            raise ValueError("norm order must satisfy p >= 1")
        return NormSpec(kind="p", p=float(p))

    @staticmethod
    def scaled(alpha: float, p: float) -> "NormSpec":
        if alpha <= 0:
            raise ValueError("scale must be positive")
        if not (p >= 1.0):
            raise ValueError("norm order must satisfy p >= 1")
        return NormSpec(kind="scaled", p=float(p), alpha=float(alpha))

    @staticmethod
    def weighted(A, p: float) -> "NormSpec":
        A, dec = psd_eig(A, name="A")
        if not dec.values[-1] > 1e-12 * dec.values[0]:
            raise ValueError("weight matrix must be positive definite")
        if not (p >= 1.0):
            raise ValueError("norm order must satisfy p >= 1")
        return NormSpec(kind="weighted", p=float(p), matrix=tuple(map(tuple, A)))

    @staticmethod
    def block_sum(blocks: Iterable["NormSpec"], sizes: Iterable[int]) -> "NormSpec":
        blocks = tuple(blocks)
        sizes = tuple(integer(s, "block size") for s in sizes)
        if len(blocks) != len(sizes) or any(s < 1 for s in sizes):
            raise ValueError("one positive size per block required")
        return NormSpec(kind="blocks", blocks=blocks, sizes=sizes)

    @staticmethod
    def block_max(blocks: Iterable["NormSpec"], sizes: Iterable[int]) -> "NormSpec":
        base = NormSpec.block_sum(blocks, sizes)
        return NormSpec(kind="blocks_max", blocks=base.blocks, sizes=base.sizes)

    # -- helpers -----------------------------------------------------------
    def weight_matrix(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=float)

    def dual_spec(self) -> "NormSpec":
        """The dual norm, per the standard table row mappings."""
        if self.kind == "p":
            return NormSpec(kind="p", p=conjugate_exponent(self.p))
        if self.kind == "scaled":
            return NormSpec(kind="scaled", p=conjugate_exponent(self.p), alpha=1.0 / self.alpha)
        if self.kind == "weighted":
            A_inv = np.linalg.inv(self.weight_matrix())
            A_inv = 0.5 * (A_inv + A_inv.T)
            return NormSpec(
                kind="weighted", p=conjugate_exponent(self.p), matrix=tuple(map(tuple, A_inv))
            )
        duals = tuple(b.dual_spec() for b in self.blocks)
        kind = "blocks_max" if self.kind == "blocks" else "blocks"
        return NormSpec(kind=kind, blocks=duals, sizes=self.sizes)

    def _split(self, x: np.ndarray) -> list[np.ndarray]:
        """Cut the last axis of x into the blocks."""
        if sum(self.sizes) != x.shape[-1]:
            raise DimensionMismatch(
                f"block sizes {self.sizes} do not cover dimension {x.shape[-1]}"
            )
        bounds = np.cumsum((0,) + self.sizes)
        return [x[..., lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def is_lp_representable(self, dim: int) -> bool:
        """True when {x: ||x|| <= t} is a polyhedron we can emit LP rows for."""
        if dim == 1:
            return True
        if self.kind in ("p", "scaled"):
            return self.p in (1.0, math.inf)
        if self.kind == "weighted":
            return self.p in (1.0, math.inf)
        return all(b.is_lp_representable(s) for b, s in zip(self.blocks, self.sizes))


def _norm_rows(norm: NormSpec, x: np.ndarray) -> np.ndarray:
    """The norm of every vector along the last axis of x."""
    if norm.kind in ("blocks", "blocks_max"):
        vals = np.stack([_norm_rows(b, part) for b, part in zip(norm.blocks, norm._split(x))])
        return vals.sum(axis=0) if norm.kind == "blocks" else vals.max(axis=0)
    if norm.kind == "weighted":
        A = norm.weight_matrix()
        if A.shape[1] != x.shape[-1]:
            raise DimensionMismatch("weight matrix and vector dimensions differ")
        x = x @ A.T
    if math.isinf(norm.p):
        vals = np.abs(x).max(axis=-1, initial=0.0)
    else:
        vals = np.sum(np.abs(x) ** norm.p, axis=-1) ** (1.0 / norm.p)
    return norm.alpha * vals if norm.kind == "scaled" else vals


def norm_eval(norm: NormSpec, x) -> float | np.ndarray:
    """Evaluate the (primal) norm over the last axis of x.

    A vector gives a float; a stack of shape (..., m) gives the array of the
    norms of its m-vectors.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():
        raise ValueError("x contains non-finite entries")
    vals = _norm_rows(norm, x)
    return float(vals) if x.ndim == 1 else vals


def dual_norm_eval(norm: NormSpec, z) -> float | np.ndarray:
    """Evaluate the dual norm ||z||_* over the last axis of z, like norm_eval."""
    return norm_eval(norm.dual_spec(), z)


def norm_subgradient(norm: NormSpec, x) -> np.ndarray:
    """A subgradient of the norm at x (deterministic tie-breaking)."""
    x = as_vector(x, "x")
    if norm.kind == "p":
        if x.size == 0:
            return x.copy()
        if math.isinf(norm.p):
            g = np.zeros_like(x)
            if np.abs(x).max(initial=0.0) > 0:
                k = int(np.argmax(np.abs(x)))
                g[k] = np.sign(x[k])
            return g
        if norm.p == 1.0:
            return np.sign(x)
        nx = norm_eval(norm, x)
        if nx == 0.0:
            return np.zeros_like(x)
        return np.sign(x) * (np.abs(x) / nx) ** (norm.p - 1.0)
    if norm.kind == "scaled":
        return norm.alpha * norm_subgradient(NormSpec.p_norm(norm.p), x)
    if norm.kind == "weighted":
        A = norm.weight_matrix()
        return A.T @ norm_subgradient(NormSpec.p_norm(norm.p), A @ x)
    parts = norm._split(x)
    if norm.kind == "blocks":
        return np.concatenate(
            [norm_subgradient(b, part) for b, part in zip(norm.blocks, parts)]
        )
    vals = [norm_eval(b, part) for b, part in zip(norm.blocks, parts)]
    k = int(np.argmax(vals))
    g = np.zeros_like(x)
    start = sum(norm.sizes[:k])
    g[start : start + norm.sizes[k]] = norm_subgradient(norm.blocks[k], parts[k])
    return g


def _block_diag(blocks) -> np.ndarray:
    """The blocks placed along the diagonal of one zero matrix.

    blocks is a list of matrices, or a (K, r, c) array of K equal-shaped
    ones, which is placed without a Python loop.
    """
    if isinstance(blocks, np.ndarray):
        K, r, c = blocks.shape
        out = np.zeros((K, r, K, c))
        out[np.arange(K), :, np.arange(K), :] = blocks
        return out.reshape(K * r, K * c)
    rows, cols = np.cumsum([(0, 0)] + [B.shape for B in blocks], axis=0).T
    out = np.zeros((rows[-1], cols[-1]))
    for B, r, c in zip(blocks, rows, cols):
        out[r : r + B.shape[0], c : c + B.shape[1]] = B
    return out


def norm_epigraph_rows(norm: NormSpec, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (G, H, g) with norm(x) <= t  iff  G x + H u + g t <= 0 for some u >= 0.

    Only polyhedral cases are supported: p in {1, inf} (possibly scaled,
    weighted, or in blocks) and any norm in one dimension.  The auxiliaries u
    bound the coordinates of a 1-norm and the blocks of a block sum; a
    weighted norm ||W x|| takes the rows of ||.|| times W.
    """
    if dim == 1 and norm.kind in ("p", "scaled", "weighted"):
        s = norm_eval(norm, np.ones(1))
        return np.array([[s], [-s]]), np.zeros((2, 0)), np.full(2, -1.0)
    if norm.kind == "scaled":
        G, H, g = norm_epigraph_rows(NormSpec.p_norm(norm.p), dim)
        return G, H, g / norm.alpha
    if norm.kind == "weighted":
        W = norm.weight_matrix()
        if W.shape[1] != dim:
            raise DimensionMismatch("weight matrix and variable block differ")
        G, H, g = norm_epigraph_rows(NormSpec.p_norm(norm.p), dim)
        return G @ W, H, g
    if norm.kind == "p":
        signs = _block_diag(np.broadcast_to([[1.0], [-1.0]], (dim, 2, 1)))  # +x_k, -x_k
        if math.isinf(norm.p):
            return signs, np.zeros((2 * dim, 0)), np.full(2 * dim, -1.0)
        if norm.p == 1.0:
            # +-x_k <= u_k and sum_k u_k <= t
            G = np.vstack([signs, np.zeros((1, dim))])
            H = np.vstack([-np.abs(signs), np.ones((1, dim))])
            return G, H, np.append(np.zeros(2 * dim), -1.0)
        raise UnsupportedCombination(
            f"p={norm.p} norm in dimension {dim} has no polyhedral unit ball"
        )
    if sum(norm.sizes) != dim:
        raise DimensionMismatch(f"block sizes {norm.sizes} do not cover dimension {dim}")
    parts = [norm_epigraph_rows(b, s) for b, s in zip(norm.blocks, norm.sizes)]
    G = _block_diag([P[0] for P in parts])
    H = _block_diag([P[1] for P in parts])
    g = np.concatenate([P[2] for P in parts])
    if norm.kind == "blocks_max":
        return G, H, g
    # block sum: block b's norm is bounded by its own auxiliary v_b, listed
    # before the blocks' auxiliaries, and sum_b v_b <= t
    V = _block_diag([P[2][:, None] for P in parts])
    G = np.vstack([G, np.zeros((1, dim))])
    H = np.block([[V, H], [np.ones((1, V.shape[1])), np.zeros((1, H.shape[1]))]])
    return G, H, np.append(np.zeros(g.size), -1.0)


@dataclass(frozen=True)
class SetSpec:
    """A closed convex subset of R^m used as a support set.

    kind in {"whole", "ball", "polyhedron", "intersection"}.  Polyhedra are
    {x: C x <= d}.  Emptiness is not checked at construction; support-function
    evaluation raises InfeasibleSet when it certifies emptiness.
    """

    kind: str
    dim: int
    norm: NormSpec | None = None
    radius: float = 0.0
    C: tuple | None = None
    d: tuple | None = None
    members: tuple["SetSpec", ...] | None = None

    @staticmethod
    def whole(dim: int) -> "SetSpec":
        return SetSpec(kind="whole", dim=integer(dim, "dim"))

    @staticmethod
    def ball(norm: NormSpec, radius: float, dim: int) -> "SetSpec":
        """The norm ball of a finite, nonnegative radius about the origin."""
        return SetSpec(kind="ball", dim=integer(dim, "dim"), norm=norm, radius=_radius(radius, name="radius"))

    @staticmethod
    def polyhedron(C, d) -> "SetSpec":
        C = as_matrix(C, "C")
        d = as_vector(d, "d")
        if C.shape[0] != d.size:
            raise DimensionMismatch("C and d row counts differ")
        if C.shape[0] == 0:
            m = C.shape[1]
            raise ValueError(f"a polyhedron needs at least one face; for R^{m} use SetSpec.whole({m})")
        return SetSpec(
            kind="polyhedron", dim=C.shape[1], C=tuple(map(tuple, C)), d=tuple(d)
        )

    @staticmethod
    def intersection(members: Iterable["SetSpec"]) -> "SetSpec":
        members = tuple(members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimensionMismatch("intersection members must share a dimension")
        return SetSpec(kind="intersection", dim=members[0].dim, members=members)

    def C_matrix(self) -> np.ndarray:
        return np.asarray(self.C, dtype=float)

    def d_vector(self) -> np.ndarray:
        return np.asarray(self.d, dtype=float)

    def contains(self, x, tol: float = 1e-9) -> bool | np.ndarray:
        """Membership of a point, or of each m-vector of a stack (..., m) as
        norm_eval; polyhedron rows hold within tol * (|C| |x| + |d|) each."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.isfinite(x).all():
            raise ValueError("x contains non-finite entries")
        if self.kind == "whole":
            inside = np.ones(x.shape[:-1], dtype=bool)
        elif self.kind == "ball":
            inside = np.asarray(norm_eval(self.norm, x) <= self.radius + tol)
        elif self.kind == "polyhedron":
            C, d = self.C_matrix(), self.d_vector()
            inside = np.all(x @ C.T - d <= tol * (np.abs(x) @ np.abs(C).T + np.abs(d)), axis=-1)
        else:
            inside = np.all([m.contains(x, tol) for m in self.members], axis=0)
        return bool(inside) if x.ndim == 1 else inside


def _face_sizes(members: list[SetSpec]) -> tuple[float, list[np.ndarray]]:
    """The length r that x is measured in and, per member, its faces' sizes.

    Face j of C x <= d has size max(|d_j|, r ||C_j||_inf), and a ball is one
    face of offset its radius and ||C_j|| = 1.  r is the geometric middle of
    the positive distances |d_j| / ||C_j||_inf, so that neither a far face's
    coefficients nor a near face's slack fall below the pivot tolerance.
    """
    faces = [
        (np.abs(m.d_vector()), np.abs(m.C_matrix()).max(axis=1, initial=0.0))
        if m.kind == "polyhedron"
        else (np.array([m.radius]), np.ones(1))
        for m in members
    ]
    dist = np.concatenate([o[(o > 0) & (s > 0)] / s[(o > 0) & (s > 0)] for o, s in faces])
    r = math.sqrt(dist.min() * dist.max()) if dist.size else 1.0
    rhos = [np.maximum(o, r * s) for o, s in faces]
    return r, [np.where(rho > 0, rho, 1.0) for rho in rhos]


def _support_rows(members: list, n: int, r: float, rhos: list) -> tuple[np.ndarray, np.ndarray]:
    """Rows A w <= b of the intersection of members, in w = [x; u] / r.

    A polyhedron gives its faces C x <= d, a ball the epigraph rows
    G x + H u <= -g radius of its norm, with u >= 0 the rows' auxiliaries;
    each face and each ball is divided by its size in rhos.  The rows for
    u >= 0 come last, as -u <= 0.
    """
    parts, rhs = [], []
    for m, rho in zip(members, rhos):
        if m.kind == "polyhedron":
            parts.append((r * m.C_matrix() / rho[:, None], np.zeros((rho.size, 0))))
            rhs.append(m.d_vector() / rho)
        elif m.kind == "ball":
            G, H, g = norm_epigraph_rows(m.norm, n)
            parts.append((r / rho * G, r / rho * H))
            rhs.append(-m.radius / rho * g)
        else:
            raise UnsupportedCombination("intersection members must be polyhedra or norm balls")
    A = np.hstack([np.vstack([P[0] for P in parts]), _block_diag([P[1] for P in parts])])
    n_aux = A.shape[1] - n
    A = np.vstack([A, np.hstack([np.zeros((n_aux, n)), -np.eye(n_aux)])])
    return A, np.concatenate(rhs + [np.zeros(n_aux)])


def _feasible_point(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A point w with A w <= b, or InfeasibleSet.

    At the origin the rows fall short by at most t0 = -min b.  Shifted by s,
    the LP  max s  over  A w + s <= b + t0, s <= t0  is feasible at the
    origin and reaches t0 exactly when A w <= b has a solution.  The rows
    are scaled, so s short of t0 by more than a tolerance relative to them
    certifies that the set is empty.
    """
    k, n = A.shape
    t0 = -float(b.min())
    rows = np.block([[A, np.ones((k, 1))], [np.zeros((1, n)), np.ones((1, 1))]])
    w, _ = LPStack(rows, np.append(b + t0, t0), n + 1).solve(-np.eye(1, n + 1, n))
    if w[0, n] < t0 - _FEAS_TOL * float(np.abs(b).max()):
        raise InfeasibleSet(f"the set is empty: every point violates a scaled row by {t0 - w[0, n]:.3g}")
    return w[0, :n]


def support_function_eval(S: SetSpec, z) -> float:
    """sup_{x in S} z'x as an extended real (+inf allowed).

    Polyhedra and intersections are solved as the LP  max z'x  over their
    rows, with x free (see _support_rows).  The simplex's tolerances are
    absolute, so each face is divided by its own size (see _face_sizes) and
    z by its largest magnitude: a row's slack is then relative to its face,
    whatever the other faces' scale.  When the origin is outside the set,
    the LP starts from a feasible point found first (_feasible_point), and
    InfeasibleSet is raised when there is none.  The value is scaled back.
    """
    z = as_vector(z, "z")
    if z.size != S.dim:
        raise DimensionMismatch(f"z has dimension {z.size}, set has {S.dim}")
    if S.kind == "whole":
        return 0.0 if not np.any(z) else math.inf
    if S.kind == "ball":
        return S.radius * dual_norm_eval(S.norm, z)
    members = [S] if S.kind == "polyhedron" else [m for m in S.members if m.kind != "whole"]
    if S.kind == "intersection" and len(members) < 2:
        return support_function_eval(members[0] if members else SetSpec.whole(S.dim), z)
    r, rhos = _face_sizes(members)
    A, b = _support_rows(members, S.dim, r, rhos)
    w0 = _feasible_point(A, b) if b.min(initial=0.0) < 0.0 else np.zeros(A.shape[1])
    # every variable is free from w0 on: u >= 0 is among the rows
    size = float(np.abs(z).max(initial=0.0)) or 1.0
    c = np.append(z / size, np.zeros(A.shape[1] - S.dim))
    _, objective = LPStack(A, np.maximum(b - A @ w0, 0.0), A.shape[1]).solve(-c)
    return r * size * (float(c @ w0) - float(objective[0]))
