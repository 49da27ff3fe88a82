"""Dense revised simplex on a stack of LPs that share one constraint matrix.

``LPStack`` is the one entry point.  It solves K LPs  min c_k'x  s.t.
A x <= b_k  with every b_k >= 0 and the first n_free entries of x free,
the others nonnegative.  Each member starts at its slack basis, which
b_k >= 0 makes feasible, so no phase 1 runs, and each later solve (new
costs, same rows) starts from the bases the previous one ended at.

The core runs the equality forms  min c_k'z, W z = b_k, z >= 0  over one
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
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, MaxIterExceeded, NumericalFailure

__all__ = ["LPStack"]

_PIVOT_TOL = 1e-9
_CHECK_TOL = 1e-8  # the independent reduced-cost check, relative to the largest cost
_REFACTOR_EVERY = 64
_DEGENERATE_STREAK = 50
_RUNNING, _OPTIMAL, _UNBOUNDED = 0, 1, 2


class _Simplex:
    """K equality-form LPs  min c_k'z, W z = b_k, z >= 0  over one shared W."""

    def __init__(self, W: np.ndarray, b: np.ndarray, basis):
        """Start every member at basis, whose columns of W form the identity:
        B_inv = I, x_B = b_k.  b is (K, k)."""
        self.W = W
        self.b = b
        K, k = self.b.shape
        self.basis = np.tile(np.asarray(basis, dtype=np.intp), (K, 1))
        self.B_inv = np.tile(np.eye(k), (K, 1, 1))
        self.x_B = self.b.copy()
        self.stale = np.zeros(K, dtype=int)  # pivots since the last fresh inverse

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

    def run(self, cost: np.ndarray, max_iter: int) -> np.ndarray:
        """Optimize every member from its current basis.

        cost is (K, n), or (n,) for all members.  Returns one status per
        member, "optimal" or "unbounded".
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
                self._check(cost, np.flatnonzero(status == _OPTIMAL), scale)
                return np.where(status == _OPTIMAL, "optimal", "unbounded")
            r = self._reduced_costs(act, cost[act])
            cand = r < -_PIVOT_TOL * scale[act, None]
            priced = cand.any(axis=1)
            # confirm optimality on a fresh inverse, at most twice per run:
            # the rank-one updates drift, and a drifted inverse can price a
            # wrong vertex optimal
            done = act[~priced]
            again = (self.stale[done] > 0) & (confirmed[done] < 2)
            redo = done[again]
            status[done[~again]] = _OPTIMAL
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

    def _check(self, cost, members: np.ndarray, scale: np.ndarray) -> None:
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
        worst = r.min(axis=1) / scale[members]
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


class LPStack:
    """K LPs  min c_k'x  s.t.  A x <= b_k  that share A, with every b_k >= 0.

    The first n_free entries of x are free, the others nonnegative.  Only
    costs change between solves.
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
        self.max_iter = max(10_000, 50 * (k + W.shape[1]))

    def solve(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimize with costs c, (K, n) or one (n,) row for every member.

        Returns x, (K, n), and the objectives, -inf where a member is
        unbounded (its x is then the last vertex reached).
        """
        f, K = self.n_free, self.core.b.shape[0]
        c = np.broadcast_to(np.asarray(c, dtype=float), (K, self.n))
        cost = np.hstack([c[:, :f], -c[:, :f], c[:, f:], np.zeros((K, self.core.W.shape[0]))])
        status = self.core.run(cost, self.max_iter)
        z = self.core.solution()
        x = np.hstack([z[:, :f] - z[:, f : 2 * f], z[:, 2 * f : f + self.n]])
        objective = np.einsum("kn,kn->k", c, x)
        objective[status == "unbounded"] = -np.inf
        return x, objective
