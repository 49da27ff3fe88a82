"""Dense two-phase revised simplex with dual certificates.

Solves  min c'x  s.t.  A x (<=, =, >=) b,  l <= x <= u  with possibly
unbounded bounds.  The implementation keeps an explicit basis inverse with
rank-one updates and periodic refactorization, prices with Dantzig's rule,
and switches to Bland's rule after a streak of degenerate pivots so cycling
cannot occur.  All tie-breaks pick the lowest index, which makes runs
reproducible bit for bit.

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

__all__ = ["LinearProgram", "LPSolution", "solve_lp"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
_REFACTOR_EVERY = 64
_DEGENERATE_STREAK = 50


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
    """Equality-form revised simplex core: min c'z, W z = b, z >= 0."""

    def __init__(self, W: np.ndarray, b: np.ndarray, basis: list[int]):
        """Start at basis, whose columns of W form the identity: B_inv = I, x_B = b."""
        self.W = W
        self.b = b
        self.k = W.shape[0]
        self.n = W.shape[1]
        self.basis = list(basis)
        self.B_inv = np.eye(self.k)
        self.x_B = b.copy()
        self.rows = list(range(self.k))
        self.iterations = 0

    def _refactor(self) -> None:
        B = self.W[:, self.basis]
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded upstream
            raise NumericalFailure("singular basis during refactorization") from exc
        self.x_B = self.B_inv @ self.b

    def run(self, cost: np.ndarray, allowed: np.ndarray, max_iter: int) -> str:
        """Optimize; returns "optimal" or "unbounded"."""
        bland = False
        degen_streak = 0
        since_refactor = 0
        confirmed = 0
        for _ in range(max_iter):
            self.iterations += 1
            c_B = cost[self.basis]
            y = c_B @ self.B_inv
            r = cost - y @ self.W
            r[self.basis] = 0.0
            candidates = np.flatnonzero((r < -_PIVOT_TOL) & allowed)
            if candidates.size == 0:
                if since_refactor == 0 or confirmed >= 2:
                    return "optimal"
                # confirm optimality on a fresh inverse, at most twice: the
                # rank-one updates drift, and a drifted inverse can price a
                # wrong vertex optimal
                self._refactor()
                np.clip(self.x_B, 0.0, None, out=self.x_B)
                since_refactor = 0
                confirmed += 1
                continue
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmin(r[candidates])])
            d = self.B_inv @ self.W[:, j]
            pos = np.flatnonzero(d > _PIVOT_TOL)
            if pos.size == 0:
                return "unbounded"
            ratios = self.x_B[pos] / d[pos]
            theta = ratios.min()
            ties = pos[np.flatnonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))]
            if not bland:
                # of the tied rows, pivot on the largest element: a small
                # one can be rounding noise and leaves the basis near singular
                ties = ties[d[ties] >= d[ties].max()]
            # lowest leaving-variable index on ties keeps pivoting deterministic
            leave_pos = int(ties[np.argmin(np.asarray(self.basis)[ties])])
            if theta <= _PIVOT_TOL:
                degen_streak += 1
                if degen_streak > _DEGENERATE_STREAK:
                    bland = True
            else:
                degen_streak = 0
            self._pivot(leave_pos, j, d)
            self.x_B = self.x_B - theta * d
            self.x_B[leave_pos] = theta
            np.clip(self.x_B, 0.0, None, out=self.x_B)
            since_refactor += 1
            if since_refactor >= _REFACTOR_EVERY:
                self._refactor()
                np.clip(self.x_B, -_FEAS_TOL, None, out=self.x_B)
                np.clip(self.x_B, 0.0, None, out=self.x_B)
                since_refactor = 0
        raise MaxIterExceeded("simplex exceeded its iteration budget")

    def _pivot(self, pos: int, j: int, d: np.ndarray) -> None:
        """Put column j into the basis at position pos, given d = B_inv @ W[:, j].

        The basis inverse gets the rank-one (eta) update; x_B is left to the
        caller.
        """
        piv = d[pos]
        eta = -d / piv
        eta[pos] = 1.0 / piv
        row = self.B_inv[pos, :].copy()
        self.B_inv += np.outer(eta, row)
        self.B_inv[pos, :] = row / piv
        self.basis[pos] = j

    def duals(self, cost: np.ndarray) -> np.ndarray:
        return cost[self.basis] @ self.B_inv

    def solution(self) -> np.ndarray:
        z = np.zeros(self.n)
        z[self.basis] = self.x_B
        return z

    def drop_row(self, row: int, basis_pos: int) -> None:
        """Remove a redundant row together with the artificial basic in it."""
        keep = [i for i in range(self.k) if i != row]
        self.W = self.W[keep, :]
        self.b = self.b[keep]
        self.rows = [self.rows[i] for i in keep]
        self.k -= 1
        del self.basis[basis_pos]
        self._refactor()


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
        status = core.run(phase1_cost, allowed, max_iter)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded below
            raise NumericalFailure("phase 1 terminated abnormally")
        if float(phase1_cost[core.basis] @ core.x_B) > _FEAS_TOL * (1.0 + abs(b_f).max(initial=0.0)):
            return LPSolution(status="infeasible", iterations=core.iterations)
        # drive leftover artificials out of the basis, dropping redundant rows
        pos = 0
        while pos < len(core.basis):
            var = core.basis[pos]
            if var < n_struct + n_slack:
                pos += 1
                continue
            row_coefs = core.B_inv[pos, :] @ core.W[:, : n_struct + n_slack]
            row_coefs[[v for v in core.basis if v < n_struct + n_slack]] = 0.0
            pivots = np.flatnonzero(np.abs(row_coefs) > _PIVOT_TOL)
            if pivots.size > 0:
                j = int(pivots[0])
                core._pivot(pos, j, core.B_inv @ core.W[:, j])
                core.x_B = core.B_inv @ core.b
                np.clip(core.x_B, 0.0, None, out=core.x_B)
                pos += 1
            else:
                art_row = int(np.argmax(np.abs(core.W[:, var])))
                core.drop_row(art_row, pos)

    phase2_cost = np.concatenate([c_s, np.zeros(core.W.shape[1] - n_struct)])
    allowed = np.ones(core.W.shape[1], dtype=bool)
    allowed[n_struct + n_slack :] = False
    status = core.run(phase2_cost, allowed, max_iter)
    if status == "unbounded":
        return LPSolution(status="unbounded", objective=-np.inf, iterations=core.iterations)

    z = core.solution()
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
    y_eq = core.duals(phase2_cost)
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
        iterations=core.iterations,
    )
