"""Differential tests of the worst-case LP against an independent dual LP.

For a max-affine loss l(xi) = max_j a_j' xi + b_j, support {C xi <= d} and a
polyhedral ground norm whose unit ball has the extreme points V, the
worst-case risk over a type-1 ball is (Mohajerin Esfahani and Kuhn 2018,
Thm 4.2)

    min  gamma eps + sum_i w_i s_i
    s.t. s_i >= l_j(xi_i) + (d - C xi_i)' lam_ij,   lam_ij >= 0,
         V (a_j - C' lam_ij) <= gamma                   for all i, j,

since ||u||_* = max_v v'u over those extreme points.  A type-inf ball gives
one multiplier t_ij per cell in place of gamma: s_i >= l_j(xi_i) +
(d - C xi_i)' lam_ij + eps t_ij and V (a_j - C' lam_ij) <= t_ij.  The tests
build this LP with numpy and solve it with
``scipy.optimize.linprog(method="highs")``; scipy is a test-only dependency.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from wdro.convex_analysis import NormSpec, SetSpec
from wdro.empirical_risk import BallSpec, PiecewiseAffineLoss, extremal_pwa, wc_risk_pwa
from wdro.transport import DiscreteDistribution

REL = 1e-8
WEIGHT = np.array([[2.0, 0.5], [0.5, 1.0]])


def cube_corners(m):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


def ground(kind, m):
    """The ground norm and the extreme points of its unit ball (as rows)."""
    if kind == "one":
        return NormSpec.p_norm(1), np.vstack([np.eye(m), -np.eye(m)])
    if kind == "inf":
        return NormSpec.p_norm(math.inf), cube_corners(m)
    if kind == "weighted":
        # x -> ||W x||_inf: its unit ball is W^{-1} times the cube
        W = WEIGHT[:m, :m]
        return NormSpec.weighted(W, math.inf), cube_corners(m) @ np.linalg.inv(W).T
    if kind == "scaled":
        # alpha ||x||_inf: its unit ball is the cube over alpha
        return NormSpec.scaled(2.5, math.inf), cube_corners(m) / 2.5
    # a 1-norm on the first coordinate and 0.5 ||.||_inf on the rest
    norms, Vs = [NormSpec.p_norm(1)], [np.array([[1.0], [-1.0]])]
    if m > 1:
        norms.append(NormSpec.scaled(0.5, math.inf))
        Vs.append(cube_corners(m - 1) / 0.5)
    sizes = [V.shape[1] for V in Vs]
    if kind == "block_sum":
        # the unit ball is the hull of the blocks' unit balls, each embedded
        starts = np.cumsum([0] + sizes)
        embedded = [np.zeros((V.shape[0], m)) for V in Vs]
        for E, V, lo in zip(embedded, Vs, starts):
            E[:, lo : lo + V.shape[1]] = V
        return NormSpec.block_sum(norms, sizes), np.vstack(embedded)
    # block_max: the unit ball is the product of the blocks' unit balls
    corners = [np.concatenate(rows) for rows in itertools.product(*Vs)]
    return NormSpec.block_max(norms, sizes), np.array(corners)


def dual_lp_value(A, b, atoms, w, eps, p, C, d, V):
    N, J, m, R, K = atoms.shape[0], A.shape[0], atoms.shape[1], C.shape[0], V.shape[0]
    L = atoms @ A.T + b
    n_mult = 1 if p == 1.0 else N * J
    n_var = N + n_mult + N * J * R
    cost = np.zeros(n_var)
    cost[:N] = w
    if p == 1.0:
        cost[N] = eps
    rows, rhs = [], []
    for i, j in itertools.product(range(N), range(J)):
        cell = i * J + j
        mult = N if p == 1.0 else N + cell
        lam = slice(N + n_mult + cell * R, N + n_mult + (cell + 1) * R)
        epi = np.zeros(n_var)
        epi[i] = -1.0
        epi[lam] = d - C @ atoms[i]
        if p != 1.0:
            epi[mult] = eps
        rows.append(epi)
        rhs.append(-L[i, j])
        conj = np.zeros((K, n_var))
        conj[:, lam] = -V @ C.T
        conj[:, mult] = -1.0
        rows.extend(conj)
        rhs.extend(-V @ A[j])
    bounds = [(None, None)] * N + [(0, None)] * (n_var - N)
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def support_rows(kind, atoms, rng):
    m = atoms.shape[1]
    if kind == "box":
        C = np.vstack([np.eye(m), -np.eye(m)])
    elif kind == "polyhedron":
        C = rng.normal(size=(m + 3, m))
    elif kind == "halfline":
        C = np.ones((1, 1))
    else:
        return None, np.zeros((0, m)), np.zeros(0)
    d = (atoms @ C.T).max(axis=0) + rng.uniform(0.05, 1.0, C.shape[0])
    return SetSpec.polyhedron(C, d), C, d


CASES = [
    (support, norm)
    for support in ("box", "polyhedron", "halfline", "whole")
    for norm in ("one", "inf", "weighted", "scaled", "block_sum", "block_max")
]


@pytest.mark.parametrize("support,norm", CASES)
def test_lp_values_match_an_independent_dual(support, norm):
    for seed in range(4):
        rng = np.random.default_rng([seed, 23, len(support), len(norm)])
        m = 1 if support == "halfline" else 2
        N, J = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        atoms = rng.uniform(-1.0, 1.0, size=(N, m))
        w = rng.uniform(0.2, 1.0, N)
        w /= w.sum()
        A, b = rng.normal(size=(J, m)), rng.normal(size=J)
        eps = float(rng.uniform(0.05, 1.5))
        spec, C, d = support_rows(support, atoms, rng)
        normspec, V = ground(norm, m)
        loss = PiecewiseAffineLoss(list(zip(A, b)))
        samples = DiscreteDistribution(atoms, w)
        for p in (1.0, math.inf):
            ball = BallSpec(eps, p, normspec, spec)
            ref = dual_lp_value(A, b, samples.atoms, samples.weights, eps, p, C, d, V)
            got = wc_risk_pwa(loss, samples, ball)
            assert abs(got - ref) <= REL * (1.0 + abs(ref)), (seed, p, got, ref)
            if p == 1.0:
                rep = extremal_pwa(loss, samples, ball)
                assert abs(rep.certified_value - ref) <= REL * (1.0 + abs(ref)), (seed, rep.kind)


@pytest.mark.parametrize("support", ["box", "polyhedron", "halfline", "whole"])
def test_translated_data_with_a_small_radius_match_the_dual(support):
    """Atoms moved by 1e7, with the loss and the support moved along.

    The loss values and the problem are those of the untranslated instance,
    whose dual is solved at its own scale; only the offset differs.
    """
    shift = 1e7
    for seed in range(4):
        rng = np.random.default_rng([seed, 29, len(support)])
        m = 1 if support == "halfline" else 2
        N, J = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        atoms = rng.uniform(-1.0, 1.0, size=(N, m))
        w = rng.uniform(0.2, 1.0, N)
        w /= w.sum()
        A, b = rng.normal(size=(J, m)), rng.normal(size=J)
        spec, C, d = support_rows(support, atoms, rng)
        normspec, V = ground("one" if seed % 2 == 0 else "inf", m)
        offset = np.full(m, shift)
        moved_loss = PiecewiseAffineLoss(list(zip(A, b - A @ offset)))
        moved = DiscreteDistribution(atoms + offset, w)
        moved_spec = None if spec is None else SetSpec.polyhedron(C, d + C @ offset)
        for eps in (1e-2, 1e-6):
            for p in (1.0, math.inf):
                ref = dual_lp_value(A, b, atoms, w, eps, p, C, d, V)
                ball = BallSpec(eps, p, normspec, moved_spec)
                got = wc_risk_pwa(moved_loss, moved, ball)
                # the moved data carry rounding of about 1e-16 * shift, 1e-9 here
                assert abs(got - ref) <= REL * (1.0 + abs(ref)), (seed, eps, p, got, ref)
                if p == 1.0:
                    rep = extremal_pwa(moved_loss, moved, ball)
                    assert abs(rep.certified_value - ref) <= REL * (1.0 + abs(ref)), (seed, eps)
