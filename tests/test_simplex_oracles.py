"""Differential tests of the simplex core against HiGHS, and of its stack.

The one LP entry point, ``LPStack``, and ``support_function_eval``, which
solves on it, are compared with ``scipy.optimize.linprog(method="highs")``
(scipy is a test-only dependency) on seeded degenerate, infeasible,
unbounded and redundant-equality LPs: statuses must agree, and optimal
objectives to 1e-9 relative.  ``LPStack`` must give each member the
objective that HiGHS gives it alone, from a cold start and warm.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

import wdro.simplex as simplex
from wdro.convex_analysis import SetSpec, support_function_eval
from wdro.errors import InfeasibleSet, NumericalFailure
from wdro.simplex import LPStack

REL = 1e-9
HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(c, A, senses, b, bounds):
    senses = np.asarray(senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "="
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    res = linprog(
        c,
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if A_ub.size else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
    )
    assert res.status in HIGHS_STATUS, res.message
    return HIGHS_STATUS[res.status], res.fun


def on_stack(c, A, senses, b, bounds):
    """min c'x over free x with A x <= b, b >= 0: one LPStack member."""
    assert set(senses) == {"<="} and set(bounds) == {(None, None)}
    objective = LPStack(A, b, c.size).solve(c)[1][0]
    return ("unbounded", objective) if objective == -np.inf else ("optimal", objective)


def through_support(c, A, senses, b, bounds):
    """min c'x as minus the support function at -c of the feasible set,
    written as faces C x <= d: an equality is two opposite faces."""
    senses = np.asarray(senses)
    up, down = senses != ">=", senses != "<="
    C, d = [A[up], -A[down]], [b[up], -b[down]]
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            C.append(-np.eye(c.size)[j : j + 1]), d.append([-lo])
        if hi is not None:
            C.append(np.eye(c.size)[j : j + 1]), d.append([hi])
    try:
        sup = support_function_eval(SetSpec.polyhedron(np.vstack(C), np.concatenate(d)), -c)
    except InfeasibleSet:
        return "infeasible", None
    return ("unbounded", -np.inf) if sup == np.inf else ("optimal", -sup)


def agree(solve, c, A, senses, b, bounds):
    want, ref = highs(c, A, senses, b, bounds)
    status, objective = solve(c, A, senses, b, bounds)
    assert status == want, (status, want)
    if want == "optimal":
        assert abs(objective - ref) <= REL * (1.0 + abs(ref)), (objective, ref)
    return status


def degenerate(rng):
    """Many rows through one vertex x0 >= 0, on a small integer lattice,
    shifted so that x0 is the origin: rows A x <= b - A x0 >= 0 with x free,
    and x >= -x0 as rows."""
    n = int(rng.integers(2, 5))
    k = int(rng.integers(n + 1, 3 * n + 2))
    x0 = rng.integers(0, 2, n).astype(float)
    A = rng.integers(-3, 4, (k, n)).astype(float)
    slack = rng.integers(0, 2, k) * rng.integers(0, 3, k)  # about half the rows tight
    c = rng.integers(-3, 4, n).astype(float)
    # a box keeps the optimum finite
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([slack, 4.0 - x0, x0])
    return c, A, ["<="] * b.size, b, [(None, None)] * n


def infeasible(rng):
    n = int(rng.integers(2, 5))
    a = rng.normal(size=n)
    lo = float(rng.uniform(0.5, 2.0))
    A = np.vstack([a, a, rng.normal(size=(2, n))])
    b = np.array([lo - 1.0, lo, 5.0, 5.0])
    return rng.normal(size=n), A, ["<=", ">=", "<=", "<="], b, [(None, None)] * n


def unbounded(rng):
    n = int(rng.integers(2, 5))
    A = np.abs(rng.normal(size=(3, n)))
    b = np.abs(rng.normal(size=3)) + 1.0
    c = rng.normal(size=n)
    c[0] = -abs(c[0]) - 0.5
    # x_0 can grow without bound along a ">=" row
    return c, A, [">="] * 3, b, [(0.0, None)] * n


def redundant_equalities(rng):
    n = int(rng.integers(3, 6))
    E = rng.normal(size=(2, n))
    x0 = rng.uniform(0.5, 1.5, n)
    combos = rng.normal(size=(2, 2)) @ E  # rows that follow from the first two
    A = np.vstack([E, combos, E[:1], np.eye(n)])
    b = np.concatenate([E @ x0, combos @ x0, E[:1] @ x0, np.full(n, 3.0)])
    senses = ["="] * 5 + ["<="] * n
    return rng.normal(size=n), A, senses, b, [(0.0, None)] * n


@pytest.mark.parametrize(
    "family,solve,want",
    [
        pytest.param(degenerate, on_stack, "optimal", id="degenerate-optimal"),
        pytest.param(infeasible, through_support, "infeasible", id="infeasible-infeasible"),
        pytest.param(unbounded, through_support, "unbounded", id="unbounded-unbounded"),
        pytest.param(redundant_equalities, through_support, "optimal", id="redundant_equalities-optimal"),
    ],
)
def test_solve_lp_agrees_with_highs(family, solve, want):
    for seed in range(40):
        rng = np.random.default_rng([seed, 71, len(want)])
        assert agree(solve, *family(rng)) == want


def test_degenerate_lps_agree_under_blands_rule(monkeypatch):
    """With the degenerate streak limit at 0, each member switches to Bland's
    rule at its first degenerate pivot, so that path is checked as well."""
    monkeypatch.setattr(simplex, "_DEGENERATE_STREAK", 0)
    for seed in range(40):
        agree(on_stack, *degenerate(np.random.default_rng([seed, 73])))
    bounds = [(None, None)] * 2 + [(0.0, None)] * 2
    for seed in range(10):
        rng = np.random.default_rng([seed, 83])
        A, rhs = cell_stack(rng, 12, 2)
        costs = np.hstack([rng.normal(size=(12, 2)), np.zeros((12, 2))])
        _, objective = LPStack(A, rhs, 2).solve(costs)
        for k in range(12):
            want, ref = highs(costs[k], A, ["<="] * A.shape[0], rhs[k], bounds)
            assert want == "optimal" and abs(objective[k] - ref) <= REL * (1.0 + abs(ref))


def cell_stack(rng, K, n_free):
    """K LPs over shared rows: a 1-norm ball of radius b_k[-1] cut by faces."""
    m = n_free
    faces = rng.normal(size=(m + 2, m))
    faces /= np.linalg.norm(faces, axis=1, keepdims=True)
    # +-theta_k - u_k <= 0, sum u <= r, faces theta <= slack
    sign = np.kron(np.eye(m), [[1.0], [-1.0]])
    A = np.block(
        [
            [sign, -np.abs(sign)],
            [np.zeros((1, m)), np.ones((1, m))],
            [faces, np.zeros((m + 2, m))],
        ]
    )
    rhs = np.hstack(
        [np.zeros((K, 2 * m)), rng.uniform(0.1, 3.0, (K, 1)), rng.uniform(0.0, 2.0, (K, m + 2))]
    )
    rhs[rng.random(K) < 0.3, -(m + 2):] = 0.0  # samples on faces: degenerate starts
    return A, rhs


def test_a_stack_gives_every_member_its_own_objective():
    for seed in range(5):
        rng = np.random.default_rng([seed, 79])
        K, m = 25, 2 + seed % 2
        A, rhs = cell_stack(rng, K, m)
        stack = LPStack(A, rhs, m)
        bounds = [(None, None)] * m + [(0.0, None)] * m
        for solve in range(3):  # a cold start, then two warm ones with new costs
            costs = np.hstack([rng.normal(size=(K, m)), np.zeros((K, m))])
            x, objective = stack.solve(costs)
            for k in range(K):
                want, ref = highs(costs[k], A, ["<="] * A.shape[0], rhs[k], bounds)
                assert want == "optimal"
                assert abs(objective[k] - ref) <= REL * (1.0 + abs(ref)), (seed, solve, k)
                assert np.all(A @ x[k] <= rhs[k] + 1e-9 * (1.0 + np.abs(rhs[k])))


def test_a_stack_reports_unbounded_members():
    A = np.array([[1.0, -1.0], [0.0, 1.0]])
    stack = LPStack(A, np.array([[1.0, 1.0], [1.0, 1.0]]), n_free=1)
    # member 0: min x0 over x0 - x1 <= 1, x1 <= 1 runs off to -inf; member 1 is bounded
    _, objective = stack.solve(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert objective[0] == -np.inf
    assert objective[1] == pytest.approx(-2.0, abs=1e-12)


def test_a_stack_rejects_negative_right_hand_sides():
    with pytest.raises(ValueError, match="nonnegative"):
        LPStack(np.eye(2), np.array([[1.0, -1e-300]]), n_free=0)


def test_an_optimal_basis_is_checked_without_its_inverse(monkeypatch):
    """Pricing that sees no candidate on a wrong inverse must not pass: the
    reduced costs recomputed from the basis itself expose it."""
    def stack():
        return LPStack(np.array([[1.0, 1.0]]), np.array([[1.0]]), n_free=0)

    assert stack().solve(np.array([-1.0, -2.0]))[1][0] == pytest.approx(-2.0, abs=1e-12)

    def blind(self, members, cost):
        return np.zeros_like(cost)

    monkeypatch.setattr(simplex._Simplex, "_reduced_costs", blind)
    with pytest.raises(NumericalFailure, match="reduced cost"):
        stack().solve(np.array([-1.0, -2.0]))


def test_the_klee_minty_cube_runs_past_the_refactorization_cadence(monkeypatch):
    """max sum_j 2^(n-j) x_j  s.t.  sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i, x >= 0:
    Dantzig's rule visits all 2^n vertices, so n = 7 takes 127 pivots, past
    the refactorization every _REFACTOR_EVERY of them.  The members' right-
    hand sides are 5^i times powers of two, so each optimum, x_n = 5^n, and
    each objective scale exactly."""
    n, K = 7, 4
    i, j = np.indices((n, n))
    A = np.where(j < i, 2.0 ** (i - j + 1), 0.0) + np.eye(n)
    scale = 2.0 ** np.arange(K)
    rhs = scale[:, None] * 5.0 ** np.arange(1, n + 1)
    cost = -(2.0 ** np.arange(n - 1, -1, -1))

    counts = {"pivots": 0, "refactors": 0}  # summed over the members
    pivot, refactor = simplex._Simplex._pivot, simplex._Simplex._refactor

    def counted_pivot(self, members, *args):
        counts["pivots"] += members.size
        return pivot(self, members, *args)

    def counted_refactor(self, members):
        counts["refactors"] += members.size
        return refactor(self, members)

    monkeypatch.setattr(simplex._Simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(simplex._Simplex, "_refactor", counted_refactor)
    stack = LPStack(A, rhs, n_free=0)
    x, objective = stack.solve(cost)
    assert counts["pivots"] == K * (2**n - 1) and 2**n - 1 > simplex._REFACTOR_EVERY
    assert counts["refactors"] >= 2 * K
    want = np.zeros((K, n))
    want[:, -1] = scale * 5.0**n
    assert np.array_equal(x, want)
    assert np.array_equal(objective, -scale * 5.0**n)
    # warm, with the costs reversed: back down the same path to the origin
    bounds = [(0.0, None)] * n
    x, objective = stack.solve(-cost)
    for k in range(K):
        status, ref = highs(-cost, A, ["<="] * n, rhs[k], bounds)
        assert status == "optimal"
        assert abs(objective[k] - ref) <= REL * (1.0 + abs(ref)), (k, objective[k], ref)
    assert np.array_equal(x, np.zeros((K, n)))
    assert counts["pivots"] == 2 * K * (2**n - 1)
