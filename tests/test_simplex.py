import itertools

import numpy as np
import pytest

from wdro.convex_analysis import SetSpec, support_function_eval
from wdro.errors import InfeasibleSet, MaxIterExceeded
from wdro.simplex import LPStack


def brute_force_lp(c, A, b, n_free, box=50.0):
    """Vertex-enumeration oracle for min c'x s.t. A x <= b, x_j >= 0 for
    j >= n_free, with a bounded feasible set.

    Enumerates all basic solutions of the active-constraint system (rows +
    sign hyperplanes), keeps the feasible ones, and returns the best value.
    Only valid when an optimal solution lies inside the +-box region.
    """
    c = np.asarray(c, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = c.size
    planes = list(zip(A, b)) + [(-np.eye(n)[j], 0.0) for j in range(n_free, n)]
    best = np.inf
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, rhs)
        if np.abs(x).max() > box:
            continue
        if np.all(A @ x <= b + 1e-7) and np.all(x[n_free:] >= -1e-7):
            best = min(best, c @ x)
    return best


def solve_one(c, A, b, n_free=0):
    """The objective of min c'x s.t. A x <= b, x_j >= 0 for j >= n_free."""
    return LPStack(np.asarray(A, float), np.asarray(b, float), n_free).solve(c)[1][0]


def test_lp_tiny_example():
    # min -x - y s.t. x + y <= 1, x, y >= 0: optimum -1
    assert abs(solve_one([-1.0, -1.0], [[1.0, 1.0]], [1.0]) + 1.0) <= 1e-9


def test_lp_free_variable_and_geq():
    # min x s.t. x >= 3, x free: optimum 3, the support of {-x <= -3} at -1
    S = SetSpec.polyhedron([[-1.0]], [-3.0])
    assert abs(support_function_eval(S, [-1.0]) + 3.0) <= 1e-9


def test_lp_infeasible():
    # x <= 0 and x >= 1 with x >= 0
    S = SetSpec.polyhedron([[1.0], [-1.0], [-1.0]], [0.0, -1.0, 0.0])
    with pytest.raises(InfeasibleSet):
        support_function_eval(S, [1.0])


def test_lp_unbounded():
    # min -x s.t. x >= 0
    assert solve_one([-1.0], [[-1.0]], [0.0]) == -np.inf


def test_lp_equality_with_redundant_row():
    # x + y = 1 written twice as two opposite faces, x - y <= 0.5, x, y >= 0:
    # min x + 2y = 0.75 + 2 * 0.25
    C = [[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]]
    d = [1.0, -1.0, 1.0, -1.0, 0.5, 0.0, 0.0]
    value = -support_function_eval(SetSpec.polyhedron(C, d), [-1.0, -2.0])
    assert abs(value - (0.75 * 1.0 + 0.25 * 2.0)) <= 1e-8


def test_lp_upper_bounds():
    # min -x - 2y, 0 <= x <= 1, 0 <= y <= 1, x + y <= 1.5
    A = [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    x, objective = LPStack(np.array(A), np.array([1.5, 1.0, 1.0]), 0).solve([-1.0, -2.0])
    assert abs(objective[0] - (-2.5)) <= 1e-9
    assert abs(x[0, 1] - 1.0) <= 1e-9


def test_lp_fixed_variable():
    # x_0 = 2 as two opposite faces, x_0 + x_1 >= 3, x_1 >= 0: min x_0 + x_1 = 3
    C = [[1.0, 0.0], [-1.0, 0.0], [-1.0, -1.0], [0.0, -1.0]]
    S = SetSpec.polyhedron(C, [2.0, -2.0, -3.0, 0.0])
    assert abs(-support_function_eval(S, [-1.0, -1.0]) - 3.0) <= 1e-9
    assert abs(support_function_eval(S, [1.0, 0.0]) - 2.0) <= 1e-9
    assert abs(-support_function_eval(S, [-1.0, 0.0]) - 2.0) <= 1e-9


def test_lp_degenerate_cycling_guard():
    # classic Beale-style degeneracy: must terminate (Bland fallback)
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    assert abs(solve_one(c, A, [0.0, 0.0, 1.0]) - (-0.05)) <= 1e-9


def test_lp_random_against_vertex_oracle():
    rng = np.random.RandomState(0)
    for trial in range(60):
        n = rng.randint(2, 5)
        k = rng.randint(1, 4)
        n_free = rng.randint(0, n + 1)
        c = rng.randn(n)
        A = rng.randn(k, n)
        b = rng.rand(k) * (rng.rand(k) < 0.7)  # some rows through the origin
        # box rows keep the region bounded so the oracle is exact
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, rng.uniform(1.0, 10.0, 2 * n)])
        ref = brute_force_lp(c, A, b, n_free)
        got = solve_one(c, A, b, n_free)
        assert abs(got - ref) <= 1e-9 * (1 + abs(ref)), (trial, got, ref)


def test_lp_max_iter_guard():
    stack = LPStack(np.array([[1.0, 1.0]]), np.array([1.0]), 0)
    stack.max_iter = 10_000
    assert stack.solve([-1.0, -1.0])[1][0] == pytest.approx(-1.0, abs=1e-12)
    stack = LPStack(np.array([[1.0, 1.0]]), np.array([1.0]), 0)
    stack.max_iter = 1  # one pivot leaves no room to confirm optimality
    with pytest.raises(MaxIterExceeded):
        stack.solve([-1.0, -1.0])
