"""Differential tests of ``wasserstein_p`` against scipy's solvers.

``scipy.optimize.linprog(method="highs")`` solves the full transport LP (all
N + M marginal rows) on an independently computed cost matrix, and
``scipy.optimize.linear_sum_assignment`` gives the optimum for uniform
weights with N = M, where a permutation coupling is optimal (Birkhoff).
scipy is a test-only dependency.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import wdro.transport as transport
from wdro.convex_analysis import NormSpec
from wdro.transport import DiscreteDistribution, kr_verify, wasserstein_p

from oracles import highs_value

REL = 1e-9


def costs(X, Y, p, q):
    return np.linalg.norm(X[:, None, :] - Y[None, :, :], ord=q, axis=-1) ** p


def assert_matches_highs(X, a, Y, b, p, q):
    Q, Qp = DiscreteDistribution(X, a), DiscreteDistribution(Y, b)
    norm = NormSpec.p_norm(q)
    res = wasserstein_p(Q, Qp, p, norm)
    C = costs(Q.atoms, Qp.atoms, p, q)
    ref = highs_value(C, Q.weights, Qp.weights)
    assert abs(res.distance**p - ref) <= REL * ref
    assert abs(float(np.sum(C * res.plan.matrix)) - ref) <= REL * ref
    assert res.plan.max_marginal_error() <= 1e-12
    checked = kr_verify(Q, Qp, norm, res.duals, p=p)
    assert checked.is_feasible
    assert abs(checked.dual_value - ref) <= REL * ref
    assert res.duals.psi[Qp.weights.argmax()] == 0.0


def normalized(w):
    return w / w.sum()


def assert_matches(X, a, Y, b, p, ref):
    """The solver's value, plan cost, marginals and potentials against ref."""
    Q, Qp = DiscreteDistribution(X, a), DiscreteDistribution(Y, b)
    res = wasserstein_p(Q, Qp, p)
    C = costs(Q.atoms, Qp.atoms, p, 2)
    assert abs(res.distance**p - ref) <= REL * ref
    assert abs(float(np.sum(C * res.plan.matrix)) - ref) <= REL * ref
    assert res.plan.max_marginal_error() <= 1e-12
    assert kr_verify(Q, Qp, NormSpec.p_norm(2), res.duals, p=p).is_feasible
    assert res.duals.psi[Qp.weights.argmax()] == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_random_instances_match_highs(seed):
    rng = np.random.default_rng([seed, 17])
    N, M = (int(k) for k in rng.integers(1, 16, size=2))
    m = int(rng.integers(1, 5))
    X = rng.normal(size=(N, m)) * 10.0 ** rng.uniform(-3, 3)
    Y = rng.normal(size=(M, m)) + 0.3
    a = normalized(rng.uniform(0.05, 1.0, N))
    b = normalized(rng.uniform(0.05, 1.0, M))
    for p in (1.0, 2.0, 3.0):
        for q in (2, 1, np.inf):
            assert_matches_highs(X, a, Y, b, p, q)


def test_integer_lattice_with_uniform_weights():
    # many equal costs and equal partial sums: heavily degenerate bases
    rng = np.random.default_rng(5)
    for N, M, m in [(6, 6, 2), (8, 4, 2), (5, 10, 3), (9, 9, 1)]:
        X = rng.integers(-2, 3, size=(N, m)).astype(float)
        Y = rng.integers(-2, 3, size=(M, m)).astype(float)
        for p in (1.0, 2.0):
            for q in (2, 1):
                assert_matches_highs(X, np.full(N, 1.0 / N), Y, np.full(M, 1.0 / M), p, q)


def test_duplicate_atoms():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(4, 2))
    X = np.vstack([X, X[[0, 2, 2]]])
    Y = np.vstack([X[[1, 3]], rng.normal(size=(3, 2))])
    a = normalized(rng.uniform(0.1, 1.0, 7))
    b = normalized(rng.uniform(0.1, 1.0, 5))
    for p in (1.0, 2.0):
        assert_matches_highs(X, a, Y, b, p, 2)


def test_zero_weight_atoms():
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(5, 2)), rng.normal(size=(6, 2))
    a = normalized(np.array([0.3, 0.0, 0.5, 0.2, 0.0]))
    b = normalized(np.array([0.0, 0.25, 0.25, 0.1, 0.0, 0.4]))
    for p in (1.0, 2.0):
        assert_matches_highs(X, a, Y, b, p, 2)
        res = wasserstein_p(DiscreteDistribution(X, a), DiscreteDistribution(Y, b), p)
        assert np.all(res.plan.matrix[[1, 4], :] == 0.0)
        assert np.all(res.plan.matrix[:, [0, 4]] == 0.0)


def test_single_atom_sides():
    rng = np.random.default_rng(8)
    X, Y = rng.normal(size=(1, 3)), rng.normal(size=(6, 3))
    b = normalized(rng.uniform(0.1, 1.0, 6))
    for p in (1.0, 2.0):
        assert_matches_highs(X, np.ones(1), Y, b, p, 2)  # N = 1
        assert_matches_highs(Y, b, X, np.ones(1), p, 1)  # M = 1
        assert_matches_highs(X, np.ones(1), Y[:1], np.ones(1), p, 2)  # N = M = 1


@pytest.mark.parametrize("seed", range(4))
def test_uniform_square_matches_assignment(seed):
    rng = np.random.default_rng([seed, 23])
    n, m = 12 + 6 * seed, 1 + seed % 3
    X, Y = rng.normal(size=(n, m)), rng.normal(size=(n, m)) + 0.5
    for p in (1.0, 2.0):
        C = costs(X, Y, p, 2)
        r, c = linear_sum_assignment(C)
        ref = float(C[r, c].sum()) / n
        Q, Qp = DiscreteDistribution.from_samples(X), DiscreteDistribution.from_samples(Y)
        res = wasserstein_p(Q, Qp, p)
        assert abs(res.distance**p - ref) <= REL * ref


def test_large_degenerate_lattice_matches_assignment():
    # uniform weights on a 4 x 4 lattice: long runs of degenerate pivots,
    # which switch the pricing to Bland's rule
    rng = np.random.default_rng(4)
    X = rng.integers(0, 4, size=(100, 2)).astype(float)
    Y = rng.integers(0, 4, size=(100, 2)).astype(float)
    for q in (2, 1):
        C = costs(X, Y, 1.0, q)
        r, c = linear_sum_assignment(C)
        ref = float(C[r, c].sum()) / 100
        Q, Qp = DiscreteDistribution.from_samples(X), DiscreteDistribution.from_samples(Y)
        res = wasserstein_p(Q, Qp, 1.0, NormSpec.p_norm(q))
        assert abs(res.distance - ref) <= REL * ref
        assert kr_verify(Q, Qp, NormSpec.p_norm(q), res.duals).is_feasible


def test_near_cluster_beside_a_shared_far_atom():
    # Both sets share an atom at distance 1000, so max C is ~1e6 at p = 2 and
    # the tree potentials are ~1e6, while the improving swap inside the near
    # cluster is worth ~2e-8.  Sorted by first coordinate, the northwest
    # corner would couple x1-y1 and x2-y2, ~330 times the optimum; the
    # reduced-cost start couples x1-y2 and x2-y1, and the exact pass must
    # still see that no cell improves on it.
    X = np.array([[0.0, 0.0], [1e-5, 1e-4], [1000.0, 0.0]])
    Y = np.array([[5e-6, 1e-4], [6e-6, 0.0], [1000.0, 0.0]])
    w = np.full(3, 1.0 / 3.0)
    for p in (1.0, 2.0):
        C = costs(X, Y, p, 2)
        ref = highs_value(C, w, w)
        r, c = linear_sum_assignment(C)
        assert abs(float(C[r, c].sum()) / 3 - ref) <= REL * ref
        assert_matches(X, w, Y, w, p, ref)


@pytest.mark.parametrize("seed", range(6))
def test_near_clusters_beside_far_atoms_match_the_cluster_alone(seed):
    # Two far atoms carry the same mass on both sides, so an optimal plan
    # leaves them in place and W_p^p is the optimum of the cluster block:
    # 1e-7 to 1e-19 of max C here.  HiGHS's absolute tolerances cannot
    # resolve the whole problem at such ratios, so the reference solves the
    # block alone with its costs rescaled to a maximum of 1.
    rng = np.random.default_rng([seed, 29])
    n = 9
    scale = 10.0 ** rng.uniform(-6, -3)
    Z = rng.normal(size=(n, 2)) * scale
    far = 1000.0 * rng.normal(size=(2, 2))
    X = np.vstack([Z, far])
    Y = np.vstack([Z + 0.5 * scale * rng.normal(size=(n, 2)), far])
    wa, wb, wf = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, 2)
    wb *= wa.sum() / wb.sum()
    a, b = normalized(np.concatenate([wa, wf])), normalized(np.concatenate([wb, wf]))
    for p in (1.0, 2.0):
        block = costs(X[:n], Y[:n], p, 2)
        ref = highs_value(block / block.max(), a[:n], b[:n]) * block.max()
        assert_matches(X, a, Y, b, p, ref)


# The fast pass prices one block while N < 2 ceil(_BLOCK_CELLS / M) and
# blocks of whole rows from there on.
M_EDGE = 64
N_EDGE = 2 * -(-transport._BLOCK_CELLS // M_EDGE)


@pytest.mark.parametrize("N", [N_EDGE - 1, N_EDGE], ids=["one block", "two blocks"])
@pytest.mark.parametrize("m", [2, 5])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_block_pricing_edge_matches_highs(N, m, p):
    rng = np.random.default_rng([N, m, int(p), 71])
    X, Y = rng.normal(size=(N, m)), rng.normal(size=(M_EDGE, m)) + 0.3
    a, b = normalized(rng.uniform(0.2, 1.0, N)), normalized(rng.uniform(0.2, 1.0, M_EDGE))
    Q, Qp = DiscreteDistribution(X, a), DiscreteDistribution(Y, b)
    res = wasserstein_p(Q, Qp, p)
    ref = highs_value(costs(Q.atoms, Qp.atoms, p, 2), Q.weights, Qp.weights)
    assert abs(res.distance**p - ref) <= 1e-10 * ref
    assert kr_verify(Q, Qp, NormSpec.p_norm(2), res.duals, p=p).is_feasible


@pytest.mark.parametrize("streak", [transport._DEGENERATE_STREAK, 0])
def test_lattice_across_the_block_edge_matches_highs_under_blands_rule(monkeypatch, streak):
    # uniform weights on a 5 x 5 lattice: runs of degenerate pivots, which
    # switch the pricing to Bland's rule at once where the streak limit is 0
    # (from the reduced-cost start, none outlasts the default limit here;
    # the next test has lattices where one does); N = M = 91 prices one
    # block and 92 two
    monkeypatch.setattr(transport, "_DEGENERATE_STREAK", streak)
    for n in (91, 92):
        rng = np.random.default_rng([n, 5, 1])
        X = rng.integers(0, 5, size=(n, 2)).astype(float)
        Y = rng.integers(0, 5, size=(n, 2)).astype(float)
        Q, Qp = DiscreteDistribution.from_samples(X), DiscreteDistribution.from_samples(Y)
        for q in (2, 1):
            ref = highs_value(costs(X, Y, 1.0, q), Q.weights, Qp.weights)
            res = wasserstein_p(Q, Qp, 1.0, NormSpec.p_norm(q))
            assert abs(res.distance - ref) <= 1e-10 * ref
            assert kr_verify(Q, Qp, NormSpec.p_norm(q), res.duals).is_feasible


@pytest.mark.parametrize("n", [91, 92], ids=["one block", "two blocks"])
def test_lattice_reaches_blands_rule_at_the_default_streak_limit(monkeypatch, n):
    # uniform weights on a 4 x 4 lattice where a degenerate run outlasts
    # _DEGENERATE_STREAK from the reduced-cost start: the run takes another
    # number of pivots than one in which Bland's rule never starts
    pivots = []
    solve = transport._transport_simplex

    def counting(*args):
        out = solve(*args)
        pivots.append(out[3])
        return out

    monkeypatch.setattr(transport, "_transport_simplex", counting)
    rng = np.random.default_rng([n, 4, 3])
    X = rng.integers(0, 4, size=(n, 2)).astype(float)
    Y = rng.integers(0, 4, size=(n, 2)).astype(float)
    Q, Qp = DiscreteDistribution.from_samples(X), DiscreteDistribution.from_samples(Y)
    ref = highs_value(costs(X, Y, 1.0, 2), Q.weights, Qp.weights)
    res = wasserstein_p(Q, Qp, 1.0)
    assert abs(res.distance - ref) <= 1e-10 * ref
    assert kr_verify(Q, Qp, NormSpec.p_norm(2), res.duals).is_feasible
    monkeypatch.setattr(transport, "_DEGENERATE_STREAK", 10**9)
    wasserstein_p(Q, Qp, 1.0)
    assert pivots[0] != pivots[1], pivots
