import itertools
import math

import numpy as np
import pytest

from wdro.convex_analysis import NormSpec, norm_eval
from wdro import _validation, transport
from wdro.errors import DimensionMismatch, NotPSD, NumericalFailure
from wdro.numerics import Tolerance
from wdro.transport import (
    DiscreteDistribution,
    DualPotentials,
    MomentPair,
    gelbrich_distance,
    kr_verify,
    moments,
    wasserstein_p,
)

EUCLID = NormSpec.p_norm(2)

# frozen oracle value for the scalar moment example mu=0, sigma^2=4 vs
# mu'=3, sigma'^2=1: sqrt((0-3)^2 + (2-1)^2) = sqrt(10)
SCALAR_GELBRICH_EXAMPLE = 3.1622776601683795


def quantile_w_p(x, w, y, v, p):
    """1-D oracle: integrate |F^{-1}(t) - G^{-1}(t)|^p over the comonotone
    coupling, which is optimal on the line for every p >= 1."""
    ix = np.argsort(x)
    x, w = np.asarray(x, float)[ix], np.asarray(w, float)[ix]
    iy = np.argsort(y)
    y, v = np.asarray(y, float)[iy], np.asarray(v, float)[iy]
    cx, cy = np.cumsum(w), np.cumsum(v)
    ts = np.unique(np.concatenate([[0.0], cx, cy]))
    total, prev = 0.0, 0.0
    for t in ts[1:]:
        mid = 0.5 * (prev + t)
        qx = x[min(np.searchsorted(cx, mid), x.size - 1)]
        qy = y[min(np.searchsorted(cy, mid), y.size - 1)]
        total += (t - prev) * abs(qx - qy) ** p
        prev = t
    return total ** (1.0 / p)


def permutation_w_p(A, B, p, norm):
    """Uniform-weights oracle: by Birkhoff's theorem the transport LP with
    uniform marginals is optimized at a permutation coupling."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    n = A.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(norm_eval(norm, A[i] - B[perm[i]]) ** p for i in range(n)) / n
        best = min(best, cost)
    return best ** (1.0 / p)


def scalar_gelbrich(mu1, s1, mu2, s2):
    return math.sqrt((mu1 - mu2) ** 2 + (s1 - s2) ** 2)


def random_distribution(rng, n, m, weighted=True):
    atoms = rng.randn(n, m) * 2.0
    if weighted:
        w = rng.rand(n) + 0.1
        w = w / w.sum()
    else:
        w = None
    return DiscreteDistribution(atoms, w)


def same_merged(Q, Qp, tol=1e-9):
    A, B = Q.merged(), Qp.merged()
    if A.n_atoms != B.n_atoms:
        return False
    used = set()
    for x, w in zip(A.atoms, A.weights):
        for k in range(B.n_atoms):
            if (
                k not in used
                and np.linalg.norm(x - B.atoms[k]) <= tol
                and abs(w - B.weights[k]) <= 1e-9
            ):
                used.add(k)
                break
        else:
            return False
    return True


def test_oracles_agree_on_uniform_line():
    rng = np.random.RandomState(0)
    for _ in range(6):
        x = rng.randn(5)
        y = rng.randn(5)
        for p in (1.0, 2.0):
            a = quantile_w_p(x, np.full(5, 0.2), y, np.full(5, 0.2), p)
            b = permutation_w_p(x[:, None], y[:, None], p, EUCLID)
            assert abs(a - b) <= 1e-12 * (1 + a)


def test_identity_is_zero():
    Q = DiscreteDistribution(np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]))
    for p in (1.0, 2.0, 3.0):
        res = wasserstein_p(Q, Q, p)
        assert res.distance <= 1e-10


def test_dirac_pair_any_order():
    a, b = np.array([1.0, -2.0]), np.array([0.0, 2.0])
    for norm in (EUCLID, NormSpec.p_norm(1), NormSpec.p_norm(math.inf), NormSpec.scaled(2.0, 2)):
        ref = norm_eval(norm, a - b)
        for p in (1.0, 2.0, 3.5):
            res = wasserstein_p(DiscreteDistribution.dirac(a), DiscreteDistribution.dirac(b), p, norm)
            assert abs(res.distance - ref) <= 1e-9 * (1 + ref)


def test_escaping_atom_family():
    # W_1(delta_0, (1 - 1/n) delta_0 + (1/n) delta_{eps n}) = eps for all n
    eps = 0.7
    for n in (2, 10, 100):
        Q = DiscreteDistribution.dirac([0.0])
        Qp = DiscreteDistribution(np.array([[0.0], [eps * n]]), np.array([1 - 1 / n, 1 / n]))
        res = wasserstein_p(Q, Qp, 1.0, EUCLID)
        assert abs(res.distance - eps) <= 1e-9


def test_matches_quantile_oracle_weighted_line():
    rng = np.random.RandomState(1)
    for _ in range(8):
        n, m = rng.randint(2, 7), rng.randint(2, 7)
        Q = random_distribution(rng, n, 1)
        Qp = random_distribution(rng, m, 1)
        for p in (1.0, 2.0, 3.0):
            ref = quantile_w_p(Q.atoms[:, 0], Q.weights, Qp.atoms[:, 0], Qp.weights, p)
            res = wasserstein_p(Q, Qp, p)
            assert abs(res.distance - ref) <= 1e-8 * (1 + ref)


def test_matches_permutation_oracle():
    rng = np.random.RandomState(2)
    norms = [EUCLID, NormSpec.p_norm(1), NormSpec.p_norm(math.inf), NormSpec.scaled(0.5, 2)]
    B = rng.randn(2, 2)
    norms.append(NormSpec.weighted(B @ B.T + 2 * np.eye(2), 2))
    for n, m_dim in [(2, 2), (3, 2), (5, 3)]:
        A = rng.randn(n, m_dim)
        Bm = rng.randn(n, m_dim)
        for norm in norms if m_dim == 2 else norms[:3]:
            for p in (1.0, 2.0):
                ref = permutation_w_p(A, Bm, p, norm)
                res = wasserstein_p(
                    DiscreteDistribution.from_samples(A),
                    DiscreteDistribution.from_samples(Bm),
                    p,
                    norm,
                )
                assert abs(res.distance - ref) <= 1e-8 * (1 + ref)


def test_metric_axioms_random_triples():
    rng = np.random.RandomState(3)
    for trial in range(5):
        m = rng.randint(1, 4)
        A = random_distribution(rng, rng.randint(2, 9), m)
        B = random_distribution(rng, rng.randint(2, 9), m)
        C = random_distribution(rng, rng.randint(2, 9), m)
        for p in (1.0, 2.0):
            d_ab = wasserstein_p(A, B, p).distance
            d_ba = wasserstein_p(B, A, p).distance
            d_bc = wasserstein_p(B, C, p).distance
            d_ac = wasserstein_p(A, C, p).distance
            assert abs(d_ab - d_ba) <= 1e-9 * (1 + d_ab)
            assert d_ac <= d_ab + d_bc + 1e-8


def test_zero_iff_equal_after_merging():
    rng = np.random.RandomState(4)
    atoms = rng.randn(3, 2)
    Q = DiscreteDistribution(atoms, np.array([0.5, 0.3, 0.2]))
    # same distribution with the first atom split in two and rows shuffled
    split = np.vstack([atoms[[1, 0]], atoms[[2, 0]]])
    Qp = DiscreteDistribution(split, np.array([0.3, 0.25, 0.2, 0.25]))
    d = wasserstein_p(Q, Qp, 2.0).distance
    assert d <= 1e-9
    assert same_merged(Q, Qp)

    Qr = DiscreteDistribution(atoms + 0.05, np.array([0.5, 0.3, 0.2]))
    assert wasserstein_p(Q, Qr, 2.0).distance > 1e-3
    assert not same_merged(Q, Qr)


def test_order_monotonicity():
    rng = np.random.RandomState(5)
    for _ in range(6):
        Q = random_distribution(rng, 4, 2)
        Qp = random_distribution(rng, 5, 2)
        d1 = wasserstein_p(Q, Qp, 1.0).distance
        for p in (1.5, 2.0, 3.0):
            assert wasserstein_p(Q, Qp, p).distance >= d1 - 1e-9


def test_plan_and_duals_are_certificates():
    rng = np.random.RandomState(6)
    for _ in range(6):
        Q = random_distribution(rng, 4, 2)
        Qp = random_distribution(rng, 6, 2)
        p = float(rng.choice([1.0, 2.0]))
        res = wasserstein_p(Q, Qp, p)
        assert res.plan.max_marginal_error() <= 1e-9
        assert np.min(res.plan.matrix) >= -1e-12
        cost = np.array(
            [
                [norm_eval(EUCLID, a - b) ** p for b in Qp.atoms]
                for a in Q.atoms
            ]
        )
        primal = float(np.sum(cost * res.plan.matrix))
        assert abs(primal - res.distance**p) <= 1e-9 * (1 + primal)
        # pairwise dual feasibility and a duality gap below 1e-8
        slack = res.duals.psi[None, :] - res.duals.phi[:, None] - cost
        assert np.max(slack) <= 1e-9 * (1 + np.max(cost))
        dual_value = res.duals.psi @ Qp.weights - res.duals.phi @ Q.weights
        assert abs(primal - dual_value) <= 1e-8 * (1 + primal)


def test_kr_verify_roundtrip():
    rng = np.random.RandomState(7)
    Q = random_distribution(rng, 5, 2)
    Qp = random_distribution(rng, 4, 2)
    res = wasserstein_p(Q, Qp, 1.0)
    checked = kr_verify(Q, Qp, EUCLID, res.duals)
    assert checked.is_feasible
    assert abs(checked.dual_value - res.distance) <= 1e-8 * (1 + res.distance)


def test_kr_verify_defaults_to_the_ground_norm_of_wasserstein_p():
    rng = np.random.RandomState(9)
    Q = random_distribution(rng, 5, 2)
    Qp = random_distribution(rng, 4, 2)
    res = wasserstein_p(Q, Qp, 2.0)
    default = kr_verify(Q, Qp, None, res.duals, p=2.0)
    assert default == kr_verify(Q, Qp, EUCLID, res.duals, p=2.0)
    assert default.is_feasible


def test_kr_verify_zero_potentials():
    rng = np.random.RandomState(8)
    Q = random_distribution(rng, 3, 2)
    Qp = random_distribution(rng, 3, 2)
    zero = DualPotentials(np.zeros(3), np.zeros(3))
    checked = kr_verify(Q, Qp, EUCLID, zero)
    assert checked.is_feasible
    assert checked.dual_value == 0.0
    assert checked.dual_value <= wasserstein_p(Q, Qp, 1.0).distance + 1e-12


def test_kr_verify_detects_violation():
    rng = np.random.RandomState(9)
    Q = random_distribution(rng, 4, 2)
    Qp = random_distribution(rng, 4, 2)
    res = wasserstein_p(Q, Qp, 1.0)
    bumped = DualPotentials(res.duals.phi, res.duals.psi + np.eye(4)[1])
    checked = kr_verify(Q, Qp, EUCLID, bumped)
    assert not checked.is_feasible
    assert checked.violating_pair is not None
    assert checked.violating_pair[1] == 1
    assert checked.violation > 0.5


def test_kr_verify_flags_one_percent_violation_at_small_scale():
    # at atom scale 1e-6 the type-2 costs are ~1e-12, so a tolerance with an
    # absolute floor would accept any violation of this size
    rng = np.random.RandomState(13)
    Q = DiscreteDistribution(rng.randn(5, 2) * 1e-6, np.full(5, 0.2))
    Qp = DiscreteDistribution(rng.randn(4, 2) * 1e-6, np.full(4, 0.25))
    for p in (1.0, 2.0):
        res = wasserstein_p(Q, Qp, p)
        assert kr_verify(Q, Qp, EUCLID, res.duals, p=p).is_feasible
        max_cost = max(norm_eval(EUCLID, x - y) ** p for x in Q.atoms for y in Qp.atoms)
        # every column holds a basic cell, where the constraint is tight
        bump = 0.01 * max_cost * np.eye(4)[2]
        bumped = DualPotentials(res.duals.phi, res.duals.psi + bump)
        checked = kr_verify(Q, Qp, EUCLID, bumped, p=p)
        assert not checked.is_feasible
        assert checked.violating_pair[1] == 2
        assert abs(checked.violation - 0.01 * max_cost) <= 1e-6 * max_cost


def test_kr_verify_sees_a_violation_far_below_the_largest_cost():
    # a near cluster beside a shared far atom: max C is ~1e6 and the
    # potentials are ~1e6, while W_2^2 is 2e-11.  A tolerance of a fraction
    # of max C would accept the raised psi_0, which certifies 6.6e-9.
    X = np.array([[0.0, 0.0], [1e-5, 1e-4], [1000.0, 0.0]])
    Y = np.array([[5e-6, 1e-4], [6e-6, 0.0], [1000.0, 0.0]])
    w = np.full(3, 1.0 / 3.0)
    Q, Qp = DiscreteDistribution(X, w), DiscreteDistribution(Y, w)
    res = wasserstein_p(Q, Qp, 2.0)
    assert kr_verify(Q, Qp, None, res.duals, p=2.0).is_feasible
    raised = DualPotentials(res.duals.phi, res.duals.psi + 2e-8 * np.eye(3)[0])
    checked = kr_verify(Q, Qp, None, raised, p=2.0)
    assert not checked.is_feasible
    assert checked.violating_pair[1] == 0


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_kr_verify_accepts_the_potentials_of_wasserstein_p_at_every_scale(scale):
    rng = np.random.RandomState(41)
    for p in (1.0, 2.0):
        Q = DiscreteDistribution(rng.randn(7, 2) * scale, np.full(7, 1.0 / 7.0))
        Qp = DiscreteDistribution((rng.randn(5, 2) + 1.0) * scale, np.full(5, 0.2))
        res = wasserstein_p(Q, Qp, p)
        checked = kr_verify(Q, Qp, None, res.duals, p=p)
        assert checked.is_feasible
        assert checked.dual_value <= res.distance**p * (1.0 + 1e-9)


def test_zero_tolerance_is_held_to_the_pricing_threshold():
    rng = np.random.RandomState(15)
    exact = Tolerance(rel_tol=0.0)
    for _ in range(5):
        Q = random_distribution(rng, 12, 2)
        Qp = random_distribution(rng, 9, 2)
        for p in (1.0, 2.0):
            ref = wasserstein_p(Q, Qp, p).distance
            assert abs(wasserstein_p(Q, Qp, p, tol=exact).distance - ref) <= 1e-12 * ref


def test_wasserstein_p_rejects_potentials_off_far_below_max_cost(monkeypatch):
    # A near cluster beside a shared far atom: max C ~1e6, potentials ~1e6.
    # A solver fault that moves the two cluster columns' potentials by
    # +-1e-7 keeps the dual value (uniform weights) and stays within any
    # tolerance relative to max C, but the cell-by-cell check must see it.
    Q = DiscreteDistribution.from_samples([[0.0, 0.0], [1e-5, 1e-4], [1000.0, 0.0]])
    Qp = DiscreteDistribution.from_samples([[5e-6, 1e-4], [6e-6, 0.0], [1000.0, 0.0]])
    wasserstein_p(Q, Qp, 2.0)
    solve = transport._transport_simplex

    def faulty(*args):
        plan, u, v, pivots = solve(*args)
        return plan, u, v + np.array([1e-7, -1e-7, 0.0]), pivots

    monkeypatch.setattr(transport, "_transport_simplex", faulty)
    with pytest.raises(NumericalFailure, match="violate"):
        wasserstein_p(Q, Qp, 2.0)


def test_gelbrich_scalar_example():
    assert scalar_gelbrich(0.0, 2.0, 3.0, 1.0) == pytest.approx(SCALAR_GELBRICH_EXAMPLE, abs=1e-12)
    g = gelbrich_distance(MomentPair([0.0], [[4.0]]), MomentPair([3.0], [[1.0]]))
    assert abs(g - SCALAR_GELBRICH_EXAMPLE) <= 1e-10


def test_gelbrich_identical_and_dirac():
    rng = np.random.RandomState(10)
    B = rng.randn(3, 3)
    m1 = MomentPair(rng.randn(3), B @ B.T)
    # the trace cancellation cannot beat sqrt(machine-eps * trace scale)
    assert gelbrich_distance(m1, m1) <= 1e-6 * (1 + math.sqrt(np.trace(m1.sigma)))
    d1 = MomentPair([1.0, 2.0], np.zeros((2, 2)))
    d2 = MomentPair([4.0, -2.0], np.zeros((2, 2)))
    assert abs(gelbrich_distance(d1, d2) - 5.0) <= 1e-12


def test_gelbrich_symmetry():
    rng = np.random.RandomState(11)
    for _ in range(5):
        B1, B2 = rng.randn(3, 3), rng.randn(3, 3)
        m1 = MomentPair(rng.randn(3), B1 @ B1.T)
        m2 = MomentPair(rng.randn(3), B2 @ B2.T)
        g12 = gelbrich_distance(m1, m2)
        g21 = gelbrich_distance(m2, m1)
        assert abs(g12 - g21) <= 1e-9 * (1 + g12)


def test_gelbrich_lower_bounds_w2():
    rng = np.random.RandomState(12)
    for _ in range(8):
        m = rng.randint(1, 4)
        Q = random_distribution(rng, rng.randint(2, 7), m)
        Qp = random_distribution(rng, rng.randint(2, 7), m)
        w2 = wasserstein_p(Q, Qp, 2.0, EUCLID).distance
        g = gelbrich_distance(moments(Q), moments(Qp))
        assert g <= w2 + 1e-8


def test_moments_of_dirac_mixture():
    Q = DiscreteDistribution(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
    mp = moments(Q)
    assert abs(mp.mu[0] - 1.0) <= 1e-15
    assert abs(mp.sigma[0, 0] - 1.0) <= 1e-15


def test_not_psd_rejected():
    with pytest.raises(NotPSD):
        MomentPair([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])


def test_moment_pair_checks_symmetry_once(monkeypatch):
    calls = []
    real = _validation.check_symmetric

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # count at the defining module (check_psd calls it there) and at any
    # binding imported into transport
    monkeypatch.setattr(_validation, "check_symmetric", counting)
    monkeypatch.setattr(transport, "check_symmetric", counting, raising=False)
    pair = MomentPair([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
    assert len(calls) == 1
    assert np.array_equal(pair.sigma, [[2.0, 0.5], [0.5, 1.0]])


def test_dimension_mismatch_and_bad_weights():
    Q = DiscreteDistribution.dirac([0.0, 0.0])
    Qp = DiscreteDistribution.dirac([0.0])
    with pytest.raises(DimensionMismatch):
        wasserstein_p(Q, Qp, 1.0)
    with pytest.raises(ValueError):
        DiscreteDistribution(np.zeros((2, 1)), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.zeros((2, 1)), np.array([1.5, -0.5]))


def test_merged_collapses_duplicates():
    Q = DiscreteDistribution(
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([0.25, 0.25, 0.5])
    )
    M = Q.merged()
    assert M.n_atoms == 2
    assert sorted(M.weights.tolist()) == [0.5, 0.5]


def test_merged_matches_first_representative_loop():
    def loop_merged(Q, tol):
        reps, wts = [], []
        for x, w in zip(Q.atoms, Q.weights):
            for k, r in enumerate(reps):
                if np.linalg.norm(x - r) <= tol:
                    wts[k] += w
                    break
            else:
                reps.append(x.copy())
                wts.append(float(w))
        return np.array(reps), np.array(wts)

    rng = np.random.RandomState(14)
    for tol in (1e-10, 1e-3, 0.6):
        for _ in range(20):
            n, m = rng.randint(1, 25), rng.randint(1, 4)
            # lattice points with jitter on both sides of the tolerance
            atoms = rng.randint(-1, 2, size=(n, m)) + rng.randn(n, m) * 10.0 ** rng.randint(-13, -1)
            Q = DiscreteDistribution(atoms, rng.dirichlet(np.ones(n)))
            reps, wts = loop_merged(Q, tol)
            M = Q.merged(tol)
            assert np.array_equal(M.atoms, reps)
            assert np.array_equal(M.weights, wts)
