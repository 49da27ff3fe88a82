"""Dense revised simplex on a stack of LPs that share one constraint matrix.

The core runs K equality-form LPs  min c_k'z, W z = b_k, z >= 0  over one
shared W.  Each member keeps its own basis, basis inverse (rank-one
updates, periodic refactorization) and right-hand side, and one numpy step
pivots every member that is still running.  Per member it prices with
Dantzig's rule relative to the member's largest cost, switches to Bland's
rule after a streak of degenerate pivots so cycling cannot occur, breaks
ratio-test ties toward the largest pivot element and then the lowest
index, and confirms optimality on a freshly inverted basis.  Before a
member is reported optimal, its reduced costs are recomputed from a fresh
solve with its basis and must be nonnegative within a tolerance relative
to its costs; otherwise NumericalFailure is raised.  Runs are reproducible
bit for bit.

Two entry points use the core:

* ``solve_lp``, the two-phase method for  min c'x  s.t.  A x (<=, =, >=) b,
  l <= x <= u, is the stack of one;
* ``LPStack`` solves K LPs  min c_k'x  s.t.  A x <= b_k  with b_k >= 0 from
  their slack bases, so no phase 1 runs, and starts each later solve (new
  costs, same rows) from the bases the previous one ended at.

Duals follow the convention: for a minimization, multipliers of "<=" rows are
<= 0, of ">=" rows are >= 0, and of "=" rows are free, so that the reported
dual objective

    b'y + sum_j l_j max(r_j, 0) - sum_j u_j max(-r_j, 0),   r = c - A'y

equals the primal optimum at an optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MaxIterExceeded, NumericalFailure
from .numerics import DEFAULT_TOL, Tolerance

__all__ = ["LinearProgram", "LPSolution", "LPStack", "solve_lp"]

_PIVOT_TOL = 1e-9
_CHECK_TOL = 1e-8  # the independent reduced-cost check, relative to the largest cost
_FEAS_TOL = 1e-8
_REFACTOR_EVERY = 64
_DEGENERATE_STREAK = 50
_RUNNING, _OPTIMAL, _UNBOUNDED = 0, 1, 2


@dataclass(frozen=True)
class LinearProgram:
    """min c'x s.t. A x (senses) b, bounds[j][0] <= x_j <= bounds[j][1].

    senses entries are "<=", "=", ">=".  bounds entries are (lo, hi) with
    None for an unbounded side; omitted bounds default to (0, None).
    """

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    bounds: tuple[tuple[float | None, float | None], ...]

    def __init__(self, c, A, senses: Sequence[str], b, bounds=None):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(-1, c.size)
        b = np.atleast_1d(np.asarray(b, dtype=float))
        senses = tuple(senses)
        if A.shape != (b.size, c.size):
            raise DimensionMismatch(
                f"A has shape {A.shape}, expected ({b.size}, {c.size})"
            )
        if len(senses) != b.size:
            raise DimensionMismatch("one sense per row required")
        for s in senses:
            if s not in ("<=", "=", ">="):
                raise ValueError(f"bad sense {s!r}")
        if bounds is None:
            bounds = tuple((0.0, None) for _ in range(c.size))
        else:
            bounds = tuple((lo, hi) for lo, hi in bounds)
        if len(bounds) != c.size:
            raise DimensionMismatch("one bounds pair per variable required")
        for lo, hi in bounds:
            if lo is not None and hi is not None and hi < lo:
                raise ValueError(f"empty variable box [{lo}, {hi}]")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "bounds", bounds)


@dataclass
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    dual_objective: float | None = None
    iterations: int = 0


class _Simplex:
    """K equality-form LPs  min c_k'z, W z = b_k, z >= 0  over one shared W."""

    def __init__(self, W: np.ndarray, b: np.ndarray, basis):
        """Start every member at basis, whose columns of W form the identity:
        B_inv = I, x_B = b_k.  b is (K, k), or (k,) for a stack of one."""
        self.W = W
        self.b = np.atleast_2d(b)
        K, k = self.b.shape
        self.basis = np.tile(np.asarray(basis, dtype=np.intp), (K, 1))
        self.B_inv = np.tile(np.eye(k), (K, 1, 1))
        self.x_B = self.b.copy()
        self.stale = np.zeros(K, dtype=int)  # pivots since the last fresh inverse
        self.rows = list(range(k))
        self.iterations = np.zeros(K, dtype=int)

    def _refactor(self, members: np.ndarray) -> None:
        B = self.W[:, self.basis[members]].transpose(1, 0, 2)
        try:
            self.B_inv[members] = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during refactorization") from exc
        x_B = np.einsum("gij,gj->gi", self.B_inv[members], self.b[members])
        self.x_B[members] = np.clip(x_B, 0.0, None)
        self.stale[members] = 0

    def _reduced_costs(self, members: np.ndarray, cost: np.ndarray) -> np.ndarray:
        c_B = np.take_along_axis(cost, self.basis[members], axis=1)
        y = np.einsum("gi,gij->gj", c_B, self.B_inv[members])
        r = cost - y @ self.W
        np.put_along_axis(r, self.basis[members], 0.0, axis=1)
        return r

    def run(self, cost: np.ndarray, allowed: np.ndarray, max_iter: int) -> np.ndarray:
        """Optimize every member from its current basis.

        cost is (K, n), or (n,) for all members; allowed masks the columns
        that may enter.  Returns one status per member, "optimal" or
        "unbounded".
        """
        K, n = self.x_B.shape[0], self.W.shape[1]
        cost = np.broadcast_to(cost, (K, n))
        scale = np.abs(cost).max(axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        status = np.full(K, _RUNNING)
        bland = np.zeros(K, dtype=bool)
        streak = np.zeros(K, dtype=int)
        confirmed = np.zeros(K, dtype=int)
        for _ in range(max_iter):
            act = np.flatnonzero(status == _RUNNING)
            if act.size == 0:
                self._check(cost, allowed, np.flatnonzero(status == _OPTIMAL), scale)
                return np.where(status == _OPTIMAL, "optimal", "unbounded")
            self.iterations[act] += 1
            r = self._reduced_costs(act, cost[act])
            cand = (r < -_PIVOT_TOL * scale[act, None]) & allowed
            priced = cand.any(axis=1)
            # confirm optimality on a fresh inverse, at most twice per run:
            # the rank-one updates drift, and a drifted inverse can price a
            # wrong vertex optimal
            done = act[~priced]
            redo = done[(self.stale[done] > 0) & (confirmed[done] < 2)]
            status[np.setdiff1d(done, redo)] = _OPTIMAL
            if redo.size:
                self._refactor(redo)
                confirmed[redo] += 1
            go, r, cand = act[priced], r[priced], cand[priced]
            if go.size == 0:
                continue
            j = np.where(bland[go], cand.argmax(axis=1), np.where(cand, r, np.inf).argmin(axis=1))
            d = np.einsum("gij,jg->gi", self.B_inv[go], self.W[:, j])
            pos = d > _PIVOT_TOL
            ray = ~pos.any(axis=1)
            status[go[ray]] = _UNBOUNDED
            go, j, d, pos = go[~ray], j[~ray], d[~ray], pos[~ray]
            if go.size == 0:
                continue
            ratios = np.where(pos, self.x_B[go] / np.where(pos, d, 1.0), np.inf)
            theta = ratios.min(axis=1)
            ties = ratios <= theta[:, None] * (1.0 + 1e-12)
            # of the tied rows, pivot on the largest element: a small one can
            # be rounding noise and leaves the basis near singular
            big = np.where(ties, d, -np.inf).max(axis=1)
            ties &= bland[go, None] | (d >= big[:, None])
            # lowest leaving-variable index on ties keeps pivoting deterministic
            leave = np.where(ties, self.basis[go], np.iinfo(np.intp).max).argmin(axis=1)
            degenerate = theta <= 1e-12 * self.x_B[go].max(axis=1)
            streak[go] = np.where(degenerate, streak[go] + 1, 0)
            bland[go] |= streak[go] > _DEGENERATE_STREAK
            self._pivot(go, leave, j, d)
            x_B = self.x_B[go] - theta[:, None] * d
            x_B[np.arange(go.size), leave] = theta
            self.x_B[go] = np.clip(x_B, 0.0, None)
            self.stale[go] += 1
            old = go[self.stale[go] >= _REFACTOR_EVERY]
            if old.size:
                self._refactor(old)
        raise MaxIterExceeded("simplex exceeded its iteration budget")

    def _check(self, cost, allowed, members: np.ndarray, scale: np.ndarray) -> None:
        """Reduced costs c - W'y with B'y = c_B solved afresh, not through B_inv."""
        if members.size == 0:
            return
        B_T = self.W[:, self.basis[members]].transpose(1, 2, 0)
        c_B = np.take_along_axis(cost[members], self.basis[members], axis=1)
        try:
            y = np.linalg.solve(B_T, c_B[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis priced optimal") from exc
        r = cost[members] - y @ self.W
        worst = np.where(allowed, r, np.inf).min(axis=1) / scale[members]
        if np.any(worst < -_CHECK_TOL):
            raise NumericalFailure(
                f"a basis priced optimal has a reduced cost of {worst.min():.3g} "
                "relative to its largest cost"
            )

    def _pivot(self, members: np.ndarray, pos: np.ndarray, j: np.ndarray, d: np.ndarray) -> None:
        """Put column j[g] into the basis of member g at position pos[g], given
        d[g] = B_inv[g] @ W[:, j[g]].

        The basis inverses get the rank-one (eta) update; x_B is left to the
        caller.
        """
        g = np.arange(members.size)
        piv = d[g, pos]
        eta = -d / piv[:, None]
        eta[g, pos] = 1.0 / piv
        row = self.B_inv[members, pos, :]
        self.B_inv[members] += eta[:, :, None] * row[:, None, :]
        self.B_inv[members, pos, :] = row / piv[:, None]
        self.basis[members, pos] = j

    def solution(self) -> np.ndarray:
        z = np.zeros((self.x_B.shape[0], self.W.shape[1]))
        np.put_along_axis(z, self.basis, self.x_B, axis=1)
        return z

    def drop_row(self, row: int, basis_pos: int) -> None:
        """Remove a redundant row together with the artificial basic in it.

        Only for a stack of one: the rows are shared by every member.
        """
        keep = np.arange(self.W.shape[0]) != row
        self.W, self.b = self.W[keep], self.b[:, keep]
        self.rows = [r for r, k in zip(self.rows, keep) if k]
        self.basis = np.delete(self.basis, basis_pos, axis=1)
        self.B_inv = np.empty((1, self.W.shape[0], self.W.shape[0]))
        self.x_B = np.empty((1, self.W.shape[0]))
        self._refactor(np.arange(1))


class LPStack:
    """K LPs  min c_k'x  s.t.  A x <= b_k  that share A, with every b_k >= 0.

    The first n_free entries of x are free, the others nonnegative.  Each
    member starts at its slack basis, which b_k >= 0 makes feasible, so no
    phase 1 runs.  Only costs change between solves, so each solve starts
    from the bases the previous one ended at.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, n_free: int):
        k, n = A.shape
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if b.shape[1] != k:
            raise DimensionMismatch(f"right-hand sides have {b.shape[1]} rows, A has {k}")
        if not np.all(b >= 0.0):
            raise ValueError("every right-hand side must be nonnegative")
        self.n, self.n_free = n, n_free
        free = A[:, :n_free]
        W = np.hstack([free, -free, A[:, n_free:], np.eye(k)])
        self.core = _Simplex(W, b, np.arange(n + n_free, n + n_free + k))
        self.allowed = np.ones(W.shape[1], dtype=bool)
        self.max_iter = max(DEFAULT_TOL.max_iter, 50 * (k + W.shape[1]))

    def solve(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimize with costs c, (K, n) or one (n,) row for every member.

        Returns x, (K, n), and the objectives, -inf where a member is
        unbounded (its x is then the last vertex reached).
        """
        f, K = self.n_free, self.core.b.shape[0]
        c = np.broadcast_to(np.asarray(c, dtype=float), (K, self.n))
        cost = np.hstack([c[:, :f], -c[:, :f], c[:, f:], np.zeros((K, self.core.W.shape[0]))])
        status = self.core.run(cost, self.allowed, self.max_iter)
        z = self.core.solution()
        x = np.hstack([z[:, :f] - z[:, f : 2 * f], z[:, 2 * f : f + self.n]])
        objective = np.einsum("kn,kn->k", c, x)
        objective[status == "unbounded"] = -np.inf
        return x, objective


def _standard_form(lp: LinearProgram):
    """Translate bounds/senses into min c'z, W z = b, z >= 0."""
    k, n = lp.A.shape
    col_map: list[tuple] = []  # per original var: ("shift",col,off) ("flip",col,off) ("split",cp,cn) ("fixed",val)
    cols: list[np.ndarray] = []
    costs: list[float] = []
    x_off = np.zeros(n)
    for j, (lo, hi) in enumerate(lp.bounds):
        a_j = lp.A[:, j]
        if lo is not None and hi is not None and hi == lo:
            col_map.append(("fixed", float(lo)))
            x_off[j] = lo
            continue
        if lo is not None:
            col_map.append(("shift", len(cols), float(lo)))
            x_off[j] = lo
            cols.append(a_j)
            costs.append(lp.c[j])
        elif hi is not None:
            col_map.append(("flip", len(cols), float(hi)))
            x_off[j] = hi
            cols.append(-a_j)
            costs.append(-lp.c[j])
        else:
            col_map.append(("split", len(cols), len(cols) + 1))
            cols.append(a_j)
            costs.append(lp.c[j])
            cols.append(-a_j)
            costs.append(-lp.c[j])
    A_s = np.column_stack(cols) if cols else np.zeros((k, 0))
    b_s = lp.b - lp.A @ x_off
    obj_off = float(lp.c @ x_off)
    senses = list(lp.senses)
    # upper-bound rows for doubly bounded variables
    extra_A, extra_b = [], []
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None and hi is not None and hi > lo:
            kind, col, _ = col_map[j]
            row = np.zeros(A_s.shape[1])
            row[col] = 1.0
            extra_A.append(row)
            extra_b.append(hi - lo)
            senses.append("<=")
    if extra_A:
        A_s = np.vstack([A_s, np.asarray(extra_A)])
        b_s = np.concatenate([b_s, np.asarray(extra_b)])
    return A_s, np.asarray(b_s), senses, np.asarray(costs), col_map, obj_off, k


def solve_lp(lp: LinearProgram, tol: Tolerance = DEFAULT_TOL) -> LPSolution:
    """Two-phase revised simplex.  See the module docstring for conventions."""
    A_s, b_s, senses, c_s, col_map, obj_off, n_user_rows = _standard_form(lp)
    k, n_struct = A_s.shape

    flip = np.where(b_s < 0, -1.0, 1.0)
    A_f = A_s * flip[:, None]
    b_f = b_s * flip

    slack_cols, slack_of_row = [], {}
    art_rows = []
    for i, s in enumerate(senses):
        if s == "=":
            art_rows.append(i)
            continue
        coef = (1.0 if s == "<=" else -1.0) * flip[i]
        col = np.zeros(k)
        col[i] = coef
        slack_of_row[i] = n_struct + len(slack_cols)
        slack_cols.append(col)
        if coef < 0:  # surplus cannot start basic
            art_rows.append(i)
    n_slack = len(slack_cols)
    art_cols = []
    art_of_row = {}
    for i in art_rows:
        col = np.zeros(k)
        col[i] = 1.0
        art_of_row[i] = n_struct + n_slack + len(art_cols)
        art_cols.append(col)
    n_art = len(art_cols)

    blocks = [A_f]
    if slack_cols:
        blocks.append(np.column_stack(slack_cols))
    if art_cols:
        blocks.append(np.column_stack(art_cols))
    W = np.hstack(blocks) if len(blocks) > 1 else A_f
    n_tot = W.shape[1]

    # +1 slacks and artificials: the starting basis is the identity
    basis = [art_of_row[i] if i in art_of_row else slack_of_row[i] for i in range(k)]
    core = _Simplex(W, b_f, basis)

    max_iter = max(tol.max_iter, 50 * (k + n_tot))

    if n_art > 0:
        phase1_cost = np.zeros(n_tot)
        phase1_cost[n_struct + n_slack :] = 1.0
        allowed = np.ones(n_tot, dtype=bool)
        status = core.run(phase1_cost, allowed, max_iter)[0]
        if status != "optimal":  # pragma: no cover - phase 1 is bounded below
            raise NumericalFailure("phase 1 terminated abnormally")
        if float(phase1_cost[core.basis[0]] @ core.x_B[0]) > _FEAS_TOL * (1.0 + abs(b_f).max(initial=0.0)):
            return LPSolution(status="infeasible", iterations=int(core.iterations[0]))
        # drive leftover artificials out of the basis, dropping redundant rows
        pos = 0
        while pos < core.basis.shape[1]:
            var = core.basis[0, pos]
            if var < n_struct + n_slack:
                pos += 1
                continue
            row_coefs = core.B_inv[0, pos, :] @ core.W[:, : n_struct + n_slack]
            row_coefs[[v for v in core.basis[0] if v < n_struct + n_slack]] = 0.0
            pivots = np.flatnonzero(np.abs(row_coefs) > _PIVOT_TOL)
            if pivots.size > 0:
                j = int(pivots[0])
                member = np.zeros(1, dtype=np.intp)
                d = core.B_inv[0] @ core.W[:, j]
                core._pivot(member, np.array([pos]), np.array([j]), d[None, :])
                core.x_B[0] = np.clip(core.B_inv[0] @ core.b[0], 0.0, None)
                pos += 1
            else:
                art_row = int(np.argmax(np.abs(core.W[:, var])))
                core.drop_row(art_row, pos)

    phase2_cost = np.concatenate([c_s, np.zeros(core.W.shape[1] - n_struct)])
    allowed = np.ones(core.W.shape[1], dtype=bool)
    allowed[n_struct + n_slack :] = False
    status = core.run(phase2_cost, allowed, max_iter)[0]
    iterations = int(core.iterations[0])
    if status == "unbounded":
        return LPSolution(status="unbounded", objective=-np.inf, iterations=iterations)

    z = core.solution()[0]
    x = np.empty(lp.c.size)
    for j, entry in enumerate(col_map):
        kind = entry[0]
        if kind == "fixed":
            x[j] = entry[1]
        elif kind == "shift":
            x[j] = entry[2] + z[entry[1]]
        elif kind == "flip":
            x[j] = entry[2] - z[entry[1]]
        else:
            x[j] = z[entry[1]] - z[entry[2]]
    objective = float(lp.c @ x)

    # duals on the user's rows (drop internal upper-bound rows, undo flips)
    y_eq = phase2_cost[core.basis[0]] @ core.B_inv[0]
    y_full = np.zeros(k)
    y_full[core.rows] = y_eq  # rows dropped as redundant keep dual zero
    duals = (y_full * flip)[:n_user_rows]
    r = lp.c - duals @ lp.A
    dual_obj = float(lp.b @ duals)
    for j, (lo, hi) in enumerate(lp.bounds):
        if lo is not None:
            dual_obj += lo * max(r[j], 0.0)
        if hi is not None:
            dual_obj -= hi * max(-r[j], 0.0)
    return LPSolution(
        status="optimal",
        x=x,
        objective=objective,
        duals=duals,
        reduced_costs=r,
        dual_objective=dual_obj,
        iterations=iterations,
    )
