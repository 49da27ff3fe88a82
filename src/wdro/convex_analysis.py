"""Dual norms, convex conjugates, and support functions.

These are the closed-form ingredients the worst-case-risk reformulations are
assembled from: the dual-norm table (p-norms, scalings, positive-definite
weightings, separable block composites), the conjugate table (affine,
quadratic, norms and their powers, logloss, exp), and support functions of
whole space, norm balls, polyhedra, and their intersections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._validation import as_matrix, as_vector, check_psd
from .errors import (
    DimensionMismatch,
    InfeasibleSet,
    UnsupportedCombination,
)
from .numerics import DEFAULT_TOL, Tolerance, sym_eig
from .simplex import LPBuilder, solve_lp

__all__ = [
    "NormSpec",
    "SetSpec",
    "ConjugableFunction",
    "dual_norm_eval",
    "norm_eval",
    "norm_subgradient",
    "conjugate_eval",
    "support_function_eval",
    "conjugate_exponent",
]

_EQ_TOL = 1e-9  # scale-relative equality tolerance inside conjugates


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
        A = check_psd(A, name="A")
        if np.linalg.eigvalsh(A).min() <= 0:
            raise ValueError("weight matrix must be positive definite")
        if not (p >= 1.0):
            raise ValueError("norm order must satisfy p >= 1")
        return NormSpec(kind="weighted", p=float(p), matrix=tuple(map(tuple, A)))

    @staticmethod
    def block_sum(blocks: Iterable["NormSpec"], sizes: Iterable[int]) -> "NormSpec":
        blocks = tuple(blocks)
        sizes = tuple(int(s) for s in sizes)
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
    if not np.all(np.isfinite(x)):
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


def add_norm_le_rows(
    builder: LPBuilder,
    norm: NormSpec,
    x_idx: np.ndarray,
    t_idx: int,
    t_scale: float = 1.0,
) -> None:
    """Append LP rows enforcing norm(x) <= t_scale * t.

    Only polyhedral cases are supported: p in {1, inf} (possibly scaled,
    weighted, or in blocks) and any norm in one dimension.
    """
    x_idx = np.asarray(x_idx, dtype=int)
    dim = x_idx.size
    if dim == 1 and norm.kind in ("p", "scaled", "weighted"):
        s = norm_eval(norm, np.ones(1))
        builder.add_row({int(x_idx[0]): s, t_idx: -t_scale}, "<=", 0.0)
        builder.add_row({int(x_idx[0]): -s, t_idx: -t_scale}, "<=", 0.0)
        return
    if norm.kind == "scaled":
        add_norm_le_rows(builder, NormSpec.p_norm(norm.p), x_idx, t_idx, t_scale / norm.alpha)
        return
    if norm.kind == "weighted":
        A = norm.weight_matrix()
        if A.shape[1] != dim:
            raise DimensionMismatch("weight matrix and variable block differ")
        y_idx = builder.add_vars(dim, lo=None, hi=None)
        for r in range(dim):
            coeffs = {int(y_idx[r]): -1.0}
            for cidx, xj in enumerate(x_idx):
                if A[r, cidx] != 0.0:
                    coeffs[int(xj)] = A[r, cidx]
            builder.add_row(coeffs, "=", 0.0)
        add_norm_le_rows(builder, NormSpec.p_norm(norm.p), y_idx, t_idx, t_scale)
        return
    if norm.kind == "p":
        if math.isinf(norm.p):
            for xj in x_idx:
                builder.add_row({int(xj): 1.0, t_idx: -t_scale}, "<=", 0.0)
                builder.add_row({int(xj): -1.0, t_idx: -t_scale}, "<=", 0.0)
            return
        if norm.p == 1.0:
            w_idx = builder.add_vars(dim, lo=0.0)
            for xj, wj in zip(x_idx, w_idx):
                builder.add_row({int(xj): 1.0, int(wj): -1.0}, "<=", 0.0)
                builder.add_row({int(xj): -1.0, int(wj): -1.0}, "<=", 0.0)
            row = {int(wj): 1.0 for wj in w_idx}
            row[t_idx] = -t_scale
            builder.add_row(row, "<=", 0.0)
            return
        raise UnsupportedCombination(
            f"p={norm.p} norm in dimension {dim} has no polyhedral unit ball"
        )
    # block composites
    start = 0
    if norm.kind == "blocks_max":
        for b, s in zip(norm.blocks, norm.sizes):
            add_norm_le_rows(builder, b, x_idx[start : start + s], t_idx, t_scale)
            start += s
        return
    t_blocks = builder.add_vars(len(norm.blocks), lo=0.0)
    for b, s, tb in zip(norm.blocks, norm.sizes, t_blocks):
        add_norm_le_rows(builder, b, x_idx[start : start + s], int(tb), 1.0)
        start += s
    row = {int(tb): 1.0 for tb in t_blocks}
    row[t_idx] = -t_scale
    builder.add_row(row, "<=", 0.0)


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
        return SetSpec(kind="whole", dim=int(dim))

    @staticmethod
    def ball(norm: NormSpec, radius: float, dim: int) -> "SetSpec":
        if radius < 0:
            raise ValueError("ball radius must be nonnegative")
        return SetSpec(kind="ball", dim=int(dim), norm=norm, radius=float(radius))

    @staticmethod
    def polyhedron(C, d) -> "SetSpec":
        C = as_matrix(C, "C")
        d = as_vector(d, "d")
        if C.shape[0] != d.size:
            raise DimensionMismatch("C and d row counts differ")
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

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Membership; polyhedron rows hold within tol * (|C| |x| + |d|) each."""
        x = as_vector(x, "x")
        if self.kind == "whole":
            return True
        if self.kind == "ball":
            return norm_eval(self.norm, x) <= self.radius + tol
        if self.kind == "polyhedron":
            C, d = self.C_matrix(), self.d_vector()
            return bool(np.all(C @ x - d <= tol * (np.abs(C) @ np.abs(x) + np.abs(d))))
        return all(m.contains(x, tol) for m in self.members)


def _support_polyhedron(C: np.ndarray, d: np.ndarray, z: np.ndarray, tol: Tolerance) -> float:
    builder = LPBuilder()
    lam = builder.add_vars(C.shape[0], lo=0.0)
    for j, lj in enumerate(lam):
        builder.set_cost(int(lj), float(d[j]))
    for col in range(C.shape[1]):
        coeffs = {int(lam[i]): C[i, col] for i in range(C.shape[0]) if C[i, col] != 0.0}
        builder.add_row(coeffs, "=", float(z[col]))
    sol = solve_lp(builder.build(), tol)
    if sol.status == "infeasible":
        return math.inf
    if sol.status == "unbounded":
        raise InfeasibleSet("polyhedron is empty (support-function LP unbounded below)")
    return float(sol.objective)


def support_function_eval(S: SetSpec, z, tol: Tolerance = DEFAULT_TOL) -> float:
    """sup_{x in S} z'x as an extended real (+inf allowed)."""
    z = as_vector(z, "z")
    if z.size != S.dim:
        raise DimensionMismatch(f"z has dimension {z.size}, set has {S.dim}")
    if S.kind == "whole":
        return 0.0 if float(np.abs(z).max(initial=0.0)) <= tol.abs_tol else math.inf
    if S.kind == "ball":
        return S.radius * dual_norm_eval(S.norm, z)
    if S.kind == "polyhedron":
        return _support_polyhedron(S.C_matrix(), S.d_vector(), z, tol)
    # intersection: inf over decompositions z = sum z_k of sum sigma_k(z_k)
    members = [m for m in S.members if m.kind != "whole"]
    if not members:
        return support_function_eval(SetSpec.whole(S.dim), z, tol)
    if len(members) == 1:
        return support_function_eval(members[0], z, tol)
    builder = LPBuilder()
    z_parts = []
    for m in members:
        z_parts.append(builder.add_vars(S.dim, lo=None, hi=None))
    for col in range(S.dim):
        coeffs = {int(zp[col]): 1.0 for zp in z_parts}
        builder.add_row(coeffs, "=", float(z[col]))
    for m, zp in zip(members, z_parts):
        if m.kind == "polyhedron":
            C, d = m.C_matrix(), m.d_vector()
            lam = builder.add_vars(C.shape[0], lo=0.0)
            for j, lj in enumerate(lam):
                builder.set_cost(int(lj), float(d[j]))
            for col in range(S.dim):
                coeffs = {int(lam[i]): C[i, col] for i in range(C.shape[0]) if C[i, col] != 0.0}
                coeffs[int(zp[col])] = -1.0
                builder.add_row(coeffs, "=", 0.0)
        elif m.kind == "ball":
            dual = m.norm.dual_spec()
            if not dual.is_lp_representable(S.dim):
                raise UnsupportedCombination(
                    "intersection support values need polyhedral dual norms "
                    f"(got p={m.norm.p} in dimension {S.dim})"
                )
            t = builder.add_var(lo=0.0, cost=m.radius)
            add_norm_le_rows(builder, dual, zp, t)
        else:
            raise UnsupportedCombination(
                "intersection members must be polyhedra or norm balls"
            )
    sol = solve_lp(builder.build(), tol)
    if sol.status == "infeasible":
        return math.inf
    if sol.status == "unbounded":
        raise InfeasibleSet("intersection is empty (support LP unbounded below)")
    return float(sol.objective)


@dataclass(frozen=True)
class ConjugableFunction:
    """A convex function from the conjugate table.

    kinds: "affine" (a'x + b), "quadratic" (x'Ax/2 + a'x + b with A PSD),
    "norm" (||x||), "norm_power" ((1/p)||x||^p, p > 1), "logloss"
    (log(1 + exp(-x)), scalar), "exp" (exp(x), scalar).
    """

    kind: str
    a: tuple | None = None
    b: float = 0.0
    A: tuple | None = None
    norm: NormSpec | None = None
    p: float = 2.0

    @staticmethod
    def affine(a, b: float) -> "ConjugableFunction":
        return ConjugableFunction(kind="affine", a=tuple(as_vector(a, "a")), b=float(b))

    @staticmethod
    def quadratic(A, a, b: float) -> "ConjugableFunction":
        A = check_psd(A, name="A")
        return ConjugableFunction(
            kind="quadratic", A=tuple(map(tuple, A)), a=tuple(as_vector(a, "a")), b=float(b)
        )

    @staticmethod
    def norm(norm: NormSpec) -> "ConjugableFunction":
        return ConjugableFunction(kind="norm", norm=norm)

    @staticmethod
    def norm_power(norm: NormSpec, p: float) -> "ConjugableFunction":
        if not p > 1.0:
            raise ValueError("norm_power requires p > 1 (p = 1 is the norm kind)")
        return ConjugableFunction(kind="norm_power", norm=norm, p=float(p))

    @staticmethod
    def logloss() -> "ConjugableFunction":
        return ConjugableFunction(kind="logloss")

    @staticmethod
    def exp() -> "ConjugableFunction":
        return ConjugableFunction(kind="exp")

    def a_vector(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    def A_matrix(self) -> np.ndarray:
        return np.asarray(self.A, dtype=float)

    def value(self, x) -> float:
        x = as_vector(x, "x")
        if self.kind == "affine":
            return float(self.a_vector() @ x + self.b)
        if self.kind == "quadratic":
            return float(0.5 * x @ self.A_matrix() @ x + self.a_vector() @ x + self.b)
        if self.kind == "norm":
            return norm_eval(self.norm, x)
        if self.kind == "norm_power":
            return norm_eval(self.norm, x) ** self.p / self.p
        if self.kind == "logloss":
            t = -x[0]
            # stable log(1 + exp(t))
            return float(np.logaddexp(0.0, t))
        return float(np.exp(x[0]))


def conjugate_eval(f: ConjugableFunction, z) -> float:
    """The convex conjugate f*(z) = sup_x z'x - f(x), +inf outside dom f*."""
    z = as_vector(z, "z")
    if f.kind == "affine":
        a = f.a_vector()
        if z.size != a.size:
            raise DimensionMismatch("z and a dimensions differ")
        if np.linalg.norm(z - a) <= _EQ_TOL * (1.0 + np.linalg.norm(a)):
            return -f.b
        return math.inf
    if f.kind == "quadratic":
        a = f.a_vector()
        A = f.A_matrix()
        if z.size != a.size:
            raise DimensionMismatch("z and a dimensions differ")
        r = z - a
        dec = sym_eig(A)
        w = np.clip(dec.values, 0.0, None)
        scale = w.max(initial=0.0)
        pos = w > 1e-12 * max(scale, 1.0)
        coords = dec.vectors.T @ r
        resid = np.linalg.norm(coords[~pos]) if (~pos).any() else 0.0
        if resid > _EQ_TOL * (1.0 + np.linalg.norm(a) + np.linalg.norm(z)):
            return math.inf  # z - a outside range(A)
        val = 0.5 * float(np.sum(coords[pos] ** 2 / w[pos]))
        return val - f.b
    if f.kind == "norm":
        return 0.0 if dual_norm_eval(f.norm, z) <= 1.0 + _EQ_TOL else math.inf
    if f.kind == "norm_power":
        q = conjugate_exponent(f.p)
        return dual_norm_eval(f.norm, z) ** q / q
    if f.kind == "logloss":
        # conjugate of log(1 + exp(-x)): finite exactly on [-1, 0]
        s = float(z[0])
        if s < -1.0 - _EQ_TOL or s > _EQ_TOL:
            return math.inf
        s = min(max(s, -1.0), 0.0)
        t = -s  # t in [0, 1]
        ent = 0.0
        if t > 0.0:
            ent += t * math.log(t)
        if t < 1.0:
            ent += (1.0 - t) * math.log(1.0 - t)
        return ent
    # exp
    s = float(z[0])
    if s < -_EQ_TOL:
        return math.inf
    s = max(s, 0.0)
    return s * math.log(s) - s if s > 0.0 else 0.0
