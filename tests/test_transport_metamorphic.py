"""Metamorphic tests of ``wasserstein_p``: scaling, translation, relabelling,
size and spread.

Each test transforms the input in a way whose effect on the answer is known
exactly, so no reference solver is needed: W_p is positively homogeneous,
translation invariant and blind to the order of the atoms, and moving a
small mass to one far atom costs that mass times the cheapest way there.
Where a far atom sits beside near atoms that do not balance, the returned
potentials must certify the distance at every spread, and at moderate
spreads the distance must agree with HiGHS (``scipy.optimize.linprog``).
"""

import time

import numpy as np
import pytest

from wdro.convex_analysis import NormSpec
from wdro.transport import DiscreteDistribution, kr_verify, wasserstein_p

from oracles import highs_value

NORMS = {"2-norm": NormSpec.p_norm(2), "1-norm": NormSpec.p_norm(1)}


def instance(seed, N, M, m):
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.1, 1.0, N), rng.uniform(0.1, 1.0, M)
    return rng.normal(size=(N, m)), a / a.sum(), rng.normal(size=(M, m)) + 0.4, b / b.sum()


@pytest.mark.parametrize("norm", NORMS.values(), ids=NORMS.keys())
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_scale_equivariance(p, norm):
    for seed, (N, M, m) in enumerate([(9, 7, 2), (12, 12, 3), (8, 11, 1)]):
        X, a, Y, b = instance(seed, N, M, m)
        Q, Qp = DiscreteDistribution(X, a), DiscreteDistribution(Y, b)
        ref = wasserstein_p(Q, Qp, p, norm).distance
        for s in 10.0 ** np.arange(-8, 9):
            Qs, Qps = DiscreteDistribution(s * X, a), DiscreteDistribution(s * Y, b)
            res = wasserstein_p(Qs, Qps, p, norm)
            assert abs(res.distance / s - ref) <= 1e-10 * ref


def test_translation_invariance():
    for seed, (N, M, m) in enumerate([(10, 8, 2), (7, 13, 3), (9, 9, 1)]):
        X, a, Y, b = instance(10 + seed, N, M, m)
        shift = np.linspace(-3.0, 5.0, m)
        for norm in NORMS.values():
            for p in (1.0, 2.0):
                ref = wasserstein_p(DiscreteDistribution(X, a), DiscreteDistribution(Y, b), p, norm)
                moved = wasserstein_p(
                    DiscreteDistribution(X + shift, a), DiscreteDistribution(Y + shift, b), p, norm
                )
                assert abs(moved.distance - ref.distance) <= 1e-10 * ref.distance


def test_permutation_equivariance():
    # random atoms and weights make the optimal plan and, up to a common
    # constant, the potentials unique, so relabelling must carry them along
    for seed, (N, M, m) in enumerate([(10, 8, 2), (12, 12, 3), (6, 9, 1)]):
        X, a, Y, b = instance(20 + seed, N, M, m)
        rng = np.random.default_rng(30 + seed)
        r, c = rng.permutation(N), rng.permutation(M)
        for p in (1.0, 2.0):
            ref = wasserstein_p(DiscreteDistribution(X, a), DiscreteDistribution(Y, b), p)
            Qr, Qc = DiscreteDistribution(X[r], a[r]), DiscreteDistribution(Y[c], b[c])
            res = wasserstein_p(Qr, Qc, p)
            assert abs(res.distance - ref.distance) <= 1e-12 * ref.distance
            assert np.max(np.abs(res.plan.matrix - ref.plan.matrix[np.ix_(r, c)])) <= 1e-12
            # psi is pinned at the heaviest atom, which the relabelling
            # carries along; the check allows any common shift all the same
            shift = res.duals.psi[-1] - ref.duals.psi[c[-1]]
            scale = 1e-10 * (1.0 + np.max(np.abs(ref.duals.psi)))
            assert np.max(np.abs(res.duals.psi - ref.duals.psi[c] - shift)) <= scale
            assert np.max(np.abs(res.duals.phi - ref.duals.phi[r] - shift)) <= scale


def test_two_hundred_atoms_each_solve_fast_with_checked_duals():
    X, a, Y, b = instance(40, 200, 200, 2)
    Q, Qp = DiscreteDistribution(X, a), DiscreteDistribution(Y, b)
    elapsed = []
    for _ in range(3):  # the best of three, so one stall of the machine does not count
        start = time.perf_counter()
        res = wasserstein_p(Q, Qp, 2.0)
        elapsed.append(time.perf_counter() - start)
    assert min(elapsed) < 1.0
    checked = kr_verify(Q, Qp, NormSpec.p_norm(2), res.duals, p=2.0)
    assert checked.is_feasible
    assert abs(checked.dual_value - res.distance**2) <= 1e-10 * res.distance**2


def cheapest_routes(P, p, q):
    """Cheapest cost between every two points, routed through the others,
    with ||x - y||_q^p per leg (Floyd-Warshall)."""
    D = np.linalg.norm(P[:, None, :] - P[None, :, :], ord=q, axis=-1) ** p
    for k in range(len(P)):
        D = np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :])
    return D


@pytest.mark.parametrize("q", [1, np.inf], ids=["1-norm", "inf-norm"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_small_mass_moved_far_away_costs_its_route(p, q):
    # Q' is Q with 0.3 / L of atom 0's mass moved to an atom at (L, 0).  With
    # potentials pinned at the heaviest atom, the far atom's is about L^p,
    # yet W_p^p is the moved mass times the cheapest route from atom 0
    # to the far atom through the other atoms (for p = 1 the straight leg):
    # any plan moves that mass along such a route, and minus the cheapest
    # cost to the far atom is a feasible psi (and phi) that attains it.
    norm = NormSpec.p_norm(q)
    for seed in range(12):
        rng = np.random.default_rng([seed, 5])
        X = rng.uniform(-1.0, 1.0, size=(6, 2))
        w = rng.uniform(0.2, 1.0, 6)
        w /= w.sum()
        for L in 10.0 ** np.arange(2, 13):
            kept = w[0] - 0.3 / L
            moved = w[0] - kept  # exact, so that the two weight vectors balance exactly
            Y = np.vstack([X, [[L, 0.0]]])
            b = np.concatenate([[kept], w[1:], [moved]])
            res = wasserstein_p(DiscreteDistribution(X, w), DiscreteDistribution(Y, b), p, norm)
            ref = moved * cheapest_routes(Y, p, q)[0, 6]
            assert abs(res.distance**p - ref) <= 1e-14 * ref, (seed, L)
            assert res.duals.psi[b.argmax()] == 0.0


def far_family(seed, L):
    """Q is 6 seeded 2-D atoms; Q' is 6 other seeded atoms, whose non-uniform
    weights are scaled by 1 - 0.3 / L, and an atom at (L, 0) that takes the
    rest, so the near atoms of Q' do not balance those of Q exactly."""
    rng = np.random.default_rng([seed, 7])
    X, a = rng.uniform(-1.0, 1.0, size=(6, 2)), rng.uniform(0.2, 1.0, 6)
    Y, b = rng.uniform(-1.0, 1.0, size=(6, 2)), rng.uniform(0.2, 1.0, 6)
    b *= (1.0 - 0.3 / L) / b.sum()
    Qp = DiscreteDistribution(np.vstack([Y, [[L, 0.0]]]), np.append(b, 1.0 - b.sum()))
    return DiscreteDistribution(X, a / a.sum()), Qp


@pytest.mark.parametrize("q", [1, np.inf], ids=["1-norm", "inf-norm"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_a_far_atom_beside_unbalanced_near_atoms_is_certified(p, q):
    # Pinned at the far atom, every potential would be about L^p and carry
    # L^p eps of rounding, which the dual sum inherits; pinned at the
    # heaviest atom, the potentials that carry mass are small, and the
    # returned ones certify the distance at every L.
    norm = NormSpec.p_norm(q)
    for seed in range(12):
        for L in 10.0 ** np.arange(2, 13):
            Q, Qp = far_family(seed, L)
            res = wasserstein_p(Q, Qp, p, norm)
            value = res.distance**p
            checked = kr_verify(Q, Qp, norm, res.duals, p=p)
            assert checked.is_feasible, (seed, L)
            assert abs(checked.dual_value - value) <= 1e-14 * value, (seed, L)
            assert res.duals.psi[Qp.weights.argmax()] == 0.0
            if L <= 1e4:
                C = np.linalg.norm(Q.atoms[:, None] - Qp.atoms[None], ord=q, axis=-1) ** p
                ref = highs_value(C, Q.weights, Qp.weights)
                assert abs(value - ref) <= 1e-12 * ref, (seed, L)
