import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import wdro
from wdro.convex_analysis import NormSpec, SetSpec, norm_eval
from wdro.empirical_risk import (
    AsymptoticFamily,
    BallSpec,
    EscapingAtom,
    PiecewiseAffineLoss,
    QuadraticLoss,
    expected_loss,
    extremal_pwa,
    extremal_quadratic,
    lipschitz_modulus_pwa,
    lipschitz_upper_bound,
    wc_risk_pwa,
    wc_risk_quadratic,
)
from wdro.errors import UnsupportedCombination, UnsupportedSupport
from wdro.transport import DiscreteDistribution, wasserstein_p

EUCLID = NormSpec.p_norm(2)
ONE = NormSpec.p_norm(1)
INF = NormSpec.p_norm(math.inf)

# frozen oracle value for the two-piece modulus example: with the inf ground
# norm the dual is the 1-norm, and ||(1,2)||_1 = ||(3,0)||_1 = 3
MODULUS_EXAMPLE = 3.0


def hinge_loss():
    # max{0, xi - 1} on the line
    return PiecewiseAffineLoss([(np.array([0.0]), 0.0), (np.array([1.0]), -1.0)])


def grid_quad_value(Q, q, atoms, w, eps, coarse=3000, refine=4000):
    """Dense gamma-grid oracle for the quadratic scalar dual, built directly
    on numpy's eigendecomposition."""
    lam, V = np.linalg.eigh(np.asarray(Q, float))
    atoms = np.atleast_2d(atoms)
    w = np.asarray(w, float)
    gb = max(0.0, float(lam.max()))
    cm = (np.asarray(q, float)[None, :] + atoms @ Q) @ V
    D = cm**2
    nominal = float(
        w @ (np.einsum("ij,jk,ik->i", atoms, Q, atoms) + 2.0 * atoms @ np.asarray(q, float))
    )
    S = float(w @ D.sum(axis=1)) + 1e-30

    def g(gamma):
        denom = gamma - lam
        if np.any(denom <= 0):
            return math.inf
        return nominal + gamma * eps**2 + float(w @ (D / denom).sum(axis=1))

    offs = np.geomspace(1e-9 * (1.0 + gb), math.sqrt(S) / eps + 1.0, coarse)
    vals = np.array([g(gb + o) for o in offs])
    k = int(np.argmin(vals))
    lo = offs[max(k - 1, 0)]
    hi = offs[min(k + 1, coarse - 1)]
    fine = np.linspace(lo, hi, refine)
    vals2 = np.array([g(gb + o) for o in fine])
    return float(min(vals.min(), vals2.min()))


def random_pwa(rng, m, J):
    return PiecewiseAffineLoss([(rng.randn(m), rng.randn()) for _ in range(J)])


def box_support(m, half=1.0):
    C = np.vstack([np.eye(m), -np.eye(m)])
    return SetSpec.polyhedron(C, np.full(2 * m, half))


def coupling_budget(family, n, samples, norm, p):
    """Transport cost of the explicit coupling that moves each base atom back
    to its sample of origin; upper-bounds W_p(Q_n, samples)^p."""
    dist = family.distribution(n)
    # map each atom of dist to the nearest sample atom of origin
    total = 0.0
    for x, wt in zip(dist.atoms, dist.weights):
        costs = [norm_eval(norm, x - s) ** p for s in samples.atoms]
        total += wt * min(costs)
    return total


def test_modulus_examples():
    single = PiecewiseAffineLoss([(np.array([2.0, -1.0]), 0.5)])
    assert abs(lipschitz_modulus_pwa(single, EUCLID) - math.sqrt(5)) <= 1e-12
    assert lipschitz_modulus_pwa(hinge_loss(), ONE) == 1.0
    two = PiecewiseAffineLoss([(np.array([1.0, 2.0]), 0.0), (np.array([3.0, 0.0]), 0.0)])
    assert lipschitz_modulus_pwa(two, INF) == MODULUS_EXAMPLE


def test_wc_pwa_eps_zero_is_nominal():
    rng = np.random.RandomState(0)
    loss = random_pwa(rng, 2, 3)
    samples = DiscreteDistribution.from_samples(rng.randn(4, 2))
    nominal = expected_loss(loss, samples)
    for p in (1.0, 2.0, math.inf):
        val = wc_risk_pwa(loss, samples, BallSpec(0.0, p, EUCLID))
        assert abs(val - nominal) <= 1e-12 * (1 + abs(nominal))


def test_wc_pwa_whole_space_hinge():
    samples = DiscreteDistribution.dirac([0.0])
    for eps in (0.3, 0.9, 1.7):
        val = wc_risk_pwa(hinge_loss(), samples, BallSpec(eps, 1.0, ONE))
        assert abs(val - eps) <= 1e-9


def test_wc_pwa_halfline_support():
    # support (-inf, 2], hinge loss, one sample at 0: worst case is eps/2
    support = SetSpec.polyhedron([[1.0]], [2.0])
    samples = DiscreteDistribution.dirac([0.0])
    for eps in (0.4, 1.0, 1.9):
        ball = BallSpec(eps, 1.0, ONE, support)
        val = wc_risk_pwa(hinge_loss(), samples, ball)
        assert abs(val - eps / 2.0) <= 1e-9


def test_type1_lp_equals_closed_form():
    # on the whole space wc_risk_pwa takes the closed form, and extremal_pwa
    # runs the cells' cutting plane
    rng = np.random.RandomState(1)
    for m, J, norm in [(1, 2, ONE), (2, 3, INF), (2, 2, NormSpec.scaled(2.0, 1)), (3, 2, ONE)]:
        loss = random_pwa(rng, m, J)
        samples = DiscreteDistribution.from_samples(rng.randn(3, m))
        ball = BallSpec(0.5, 1.0, norm)
        closed = wc_risk_pwa(loss, samples, ball)
        via_lp = extremal_pwa(loss, samples, ball).certified_value
        assert abs(closed - via_lp) <= 1e-8 * (1 + abs(closed))


def test_type_inf_lp_equals_closed_form():
    # the closed form on the whole space against the cells on a box that holds
    # every sample's eps-ball with room to spare, where no face binds
    rng = np.random.RandomState(2)
    for m, J in [(1, 2), (2, 3)]:
        loss = random_pwa(rng, m, J)
        samples = DiscreteDistribution.from_samples(rng.randn(3, m))
        ball = BallSpec(0.3, math.inf, INF)
        closed = wc_risk_pwa(loss, samples, ball)
        far = box_support(m, 10.0 * (np.abs(samples.atoms).max() + ball.eps))
        via_lp = wc_risk_pwa(loss, samples, BallSpec(ball.eps, math.inf, INF, far))
        assert abs(closed - via_lp) <= 1e-8 * (1 + abs(closed))


def test_no_public_function_takes_a_method():
    """The support, the ground norm and the ball order pick every path."""
    for info in pkgutil.iter_modules(wdro.__path__):
        module = importlib.import_module(f"wdro.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                assert "method" not in inspect.signature(obj).parameters, (info.name, name)


def test_type_inf_polyhedron_caps_movement():
    # box [-1, 1], hinge loss, sample at 0, eps = 3: movement stops at 1
    support = box_support(1)
    samples = DiscreteDistribution.dirac([0.0])
    ball = BallSpec(3.0, math.inf, ONE, support)
    val = wc_risk_pwa(hinge_loss(), samples, ball)
    assert abs(val - 0.0) <= 1e-9  # max over [-1,1] of max(0, xi-1) is 0
    support2 = SetSpec.polyhedron([[1.0], [-1.0]], [1.5, 1.5])
    val2 = wc_risk_pwa(hinge_loss(), samples, BallSpec(3.0, math.inf, ONE, support2))
    assert abs(val2 - 0.5) <= 1e-9


def test_wc_pwa_p2_whole_space_grid():
    rng = np.random.RandomState(3)
    for m, J in [(1, 2), (2, 3)]:
        loss = random_pwa(rng, m, J)
        samples = DiscreteDistribution.from_samples(rng.randn(3, m))
        eps = 0.6
        val = wc_risk_pwa(loss, samples, BallSpec(eps, 2.0, EUCLID))
        duals = np.array([np.linalg.norm(a) for a in loss.A])
        L = samples.atoms @ loss.A.T + loss.b
        gs = np.geomspace(1e-4, 1e4, 20001) * (duals.max() / (2 * eps))
        grid = min(
            g * eps**2 + float(samples.weights @ (L + duals[None, :] ** 2 / (4 * g)).max(axis=1))
            for g in gs
        )
        assert val <= grid + 1e-9
        assert val >= grid - 1e-5 * (1 + abs(grid))


def test_ball_order_nesting():
    rng = np.random.RandomState(4)
    for _ in range(5):
        loss = random_pwa(rng, 2, 3)
        samples = DiscreteDistribution.from_samples(rng.randn(3, 2))
        eps = 0.4
        v1 = wc_risk_pwa(loss, samples, BallSpec(eps, 1.0, EUCLID))
        v2 = wc_risk_pwa(loss, samples, BallSpec(eps, 2.0, EUCLID))
        assert v2 <= v1 + 1e-9


def test_monotone_in_radius():
    rng = np.random.RandomState(5)
    loss = random_pwa(rng, 2, 3)
    samples = DiscreteDistribution.from_samples(rng.randn(3, 2))
    support = box_support(2, half=3.0)
    last_lp, last_p2 = -math.inf, -math.inf
    for eps in (0.0, 0.2, 0.5, 1.0):
        v_lp = wc_risk_pwa(loss, samples, BallSpec(eps, 1.0, ONE, support))
        v_p2 = wc_risk_pwa(loss, samples, BallSpec(eps, 2.0, EUCLID))
        assert v_lp >= last_lp - 1e-9 and v_p2 >= last_p2 - 1e-9
        last_lp, last_p2 = v_lp, v_p2


def test_sandwich_bounds():
    # the type-1 extremal is a distribution in the ball, or a family of them:
    # its expected loss bounds the worst case from below
    rng = np.random.RandomState(6)
    for trial in range(6):
        m = int(rng.randint(1, 3))
        loss = random_pwa(rng, m, int(rng.randint(1, 4)))
        atoms = rng.rand(3, m) - 0.5
        samples = DiscreteDistribution.from_samples(atoms)
        support = box_support(m, half=2.0) if trial % 2 == 0 else None
        ball = BallSpec(0.3, 1.0, ONE, support)
        wc = wc_risk_pwa(loss, samples, ball)
        rep = extremal_pwa(loss, samples, ball)
        worst = rep.distribution if rep.kind == "attained" else rep.family.distribution(10**6)
        lower = expected_loss(loss, worst)
        upper = lipschitz_upper_bound(loss, samples, ball)
        assert lower <= wc + 1e-8
        assert wc - lower <= 1e-5 * (1 + abs(wc))
        assert wc <= upper + 1e-8


def test_unsupported_combinations():
    samples = DiscreteDistribution.from_samples(np.zeros((2, 2)))
    loss = PiecewiseAffineLoss([(np.ones(2), 0.0)])
    with pytest.raises(UnsupportedCombination):
        wc_risk_pwa(loss, samples, BallSpec(0.5, 2.0, EUCLID, box_support(2)))
    with pytest.raises(UnsupportedCombination):
        wc_risk_pwa(loss, samples, BallSpec(0.5, 1.0, EUCLID, box_support(2)))
    with pytest.raises(UnsupportedSupport):
        BallSpec(0.5, 1.0, EUCLID, SetSpec.ball(EUCLID, 1.0, 2))
    with pytest.raises(ValueError):
        BallSpec(0.5, 3.0, EUCLID)
    with pytest.raises(ValueError):
        BallSpec(-0.1, 1.0, EUCLID)


def test_atom_outside_support_rejected():
    loss = hinge_loss()
    samples = DiscreteDistribution.dirac([5.0])
    with pytest.raises(ValueError):
        wc_risk_pwa(loss, samples, BallSpec(0.5, 1.0, ONE, box_support(1)))


def test_quadratic_ball_radius_squared():
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    samples = DiscreteDistribution.dirac([0.0, 0.0])
    for eps in (0.1, 1.0, 2.5):
        assert abs(wc_risk_quadratic(loss, samples, eps) - eps**2) <= 1e-10 * (1 + eps**2)


def test_quadratic_linear_loss_closed_form_and_grid():
    rng = np.random.RandomState(8)
    q = rng.randn(3)
    loss = QuadraticLoss(np.zeros((3, 3)), q)
    atoms = rng.randn(4, 3)
    samples = DiscreteDistribution.from_samples(atoms)
    eps = 0.7
    val = wc_risk_quadratic(loss, samples, eps)
    closed = float(np.mean(2.0 * atoms @ q)) + 2.0 * eps * np.linalg.norm(q)
    assert abs(val - closed) <= 1e-9 * (1 + abs(closed))
    grid = grid_quad_value(loss.Q, q, atoms, samples.weights, eps)
    assert val <= grid + 1e-9
    assert val >= grid - 1e-6 * (1 + abs(grid))


def test_quadratic_eps_zero_nominal():
    rng = np.random.RandomState(9)
    Q = rng.randn(2, 2)
    Q = 0.5 * (Q + Q.T)
    loss = QuadraticLoss(Q, rng.randn(2))
    samples = DiscreteDistribution.from_samples(rng.randn(3, 2))
    assert abs(wc_risk_quadratic(loss, samples, 0.0) - expected_loss(loss, samples)) <= 1e-12


def test_quadratic_matches_grid_oracle():
    rng = np.random.RandomState(10)
    for _ in range(5):
        B = rng.randn(3, 3)
        Q = 0.5 * (B + B.T)
        q = rng.randn(3)
        loss = QuadraticLoss(Q, q)
        atoms = rng.randn(3, 3)
        samples = DiscreteDistribution.from_samples(atoms)
        eps = float(rng.rand() + 0.2)
        val = wc_risk_quadratic(loss, samples, eps)
        grid = grid_quad_value(Q, q, atoms, samples.weights, eps)
        assert val <= grid + 1e-9 * (1 + abs(grid))
        assert val >= grid - 1e-5 * (1 + abs(grid))


def test_quadratic_dominates_sampled_feasible_risks():
    rng = np.random.RandomState(11)
    for _ in range(2):
        B = rng.randn(2, 2)
        Q = 0.5 * (B + B.T)
        loss = QuadraticLoss(Q, rng.randn(2))
        atoms = rng.randn(3, 2)
        samples = DiscreteDistribution.from_samples(atoms)
        eps = 0.8
        val = wc_risk_quadratic(loss, samples, eps)
        w = samples.weights
        for _ in range(500):
            theta = rng.randn(3, 2)
            budget = float(w @ (theta**2).sum(axis=1))
            theta *= math.sqrt(rng.rand() * eps**2 / budget)
            risk = float(
                sum(w[i] * loss.value(atoms[i] + theta[i]) for i in range(3))
            )
            assert risk <= val + 1e-8


def test_quadratic_monotone_in_radius():
    rng = np.random.RandomState(12)
    B = rng.randn(2, 2)
    loss = QuadraticLoss(0.5 * (B + B.T), rng.randn(2))
    samples = DiscreteDistribution.from_samples(rng.randn(3, 2))
    vals = [wc_risk_quadratic(loss, samples, e) for e in (0.0, 0.3, 0.8, 1.5)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_extremal_quadratic_escaping_example():
    loss = QuadraticLoss(np.eye(2), np.zeros(2))
    samples = DiscreteDistribution.dirac([0.0, 0.0])
    eps = 0.9
    rep = extremal_quadratic(loss, samples, eps)
    assert rep.kind == "asymptotic"
    assert abs(rep.certified_value - eps**2) <= 1e-10
    esc = rep.family.escapes[0]
    assert esc.rate_exponent == 0.5
    n = 10**6
    assert abs(esc.radial(n) - math.sqrt(n) * eps) <= 1e-6 * math.sqrt(n) * eps
    dist = rep.family.distribution(n)
    risk = expected_loss(loss, dist)
    assert abs(risk - rep.certified_value) <= 1e-6 + 10.0 / n
    # the family stays inside the ball at every n
    for n_small in (1, 10, 1000):
        d = rep.family.distribution(n_small)
        cost = float(sum(wt * np.sum(x**2) for x, wt in zip(d.atoms, d.weights)))
        assert cost <= eps**2 + 1e-9


def test_extremal_quadratic_concave_attained():
    rng = np.random.RandomState(13)
    loss = QuadraticLoss(-np.eye(2), rng.randn(2))
    atoms = rng.randn(3, 2)
    samples = DiscreteDistribution.from_samples(atoms)
    eps = 3.0
    rep = extremal_quadratic(loss, samples, eps)
    assert rep.kind == "attained"
    val = wc_risk_quadratic(loss, samples, eps)
    assert abs(rep.certified_value - val) <= 1e-10 * (1 + abs(val))
    assert abs(expected_loss(loss, rep.distribution) - val) <= 1e-7 * (1 + abs(val))
    w2 = wasserstein_p(rep.distribution, samples, 2.0, EUCLID).distance
    assert w2 <= eps + 1e-6
    # with a big budget every atom reaches the unconstrained maximizer -Q^{-1} q... here Q = -I
    peak = loss.q
    for atom in rep.distribution.atoms:
        assert np.linalg.norm(atom - peak) <= 1e-6


def test_extremal_quadratic_interior_attained():
    rng = np.random.RandomState(14)
    B = rng.randn(3, 3)
    Q = 0.5 * (B + B.T)
    q = rng.randn(3) * 2.0  # generic q puts mass on the top eigenspace
    loss = QuadraticLoss(Q, q)
    atoms = rng.randn(4, 3)
    samples = DiscreteDistribution.from_samples(atoms)
    eps = 0.5
    rep = extremal_quadratic(loss, samples, eps)
    assert rep.kind == "attained"
    val = wc_risk_quadratic(loss, samples, eps)
    assert abs(rep.certified_value - val) <= 1e-8 * (1 + abs(val))
    assert abs(expected_loss(loss, rep.distribution) - val) <= 1e-7 * (1 + abs(val))
    w2 = wasserstein_p(rep.distribution, samples, 2.0, EUCLID).distance
    assert w2 <= eps + 1e-6


def test_extremal_quadratic_eps_zero():
    rng = np.random.RandomState(15)
    loss = QuadraticLoss(np.eye(2), rng.randn(2))
    samples = DiscreteDistribution.from_samples(rng.randn(3, 2))
    rep = extremal_quadratic(loss, samples, 0.0)
    assert rep.kind == "attained"
    assert np.allclose(rep.distribution.atoms, samples.atoms)
    assert abs(rep.certified_value - expected_loss(loss, samples)) <= 1e-12


def test_extremal_pwa_halfline_attained():
    support = SetSpec.polyhedron([[1.0]], [2.0])
    samples = DiscreteDistribution.dirac([0.0])
    eps = 0.8
    rep = extremal_pwa(hinge_loss(), samples, BallSpec(eps, 1.0, ONE, support))
    assert rep.kind == "attained"
    assert abs(rep.certified_value - eps / 2.0) <= 1e-9
    dist = rep.distribution.merged(1e-8)
    order = np.argsort(dist.atoms[:, 0])
    assert np.allclose(dist.atoms[order, 0], [0.0, 2.0], atol=1e-8)
    assert np.allclose(dist.weights[order], [1.0 - eps / 2.0, eps / 2.0], atol=1e-8)
    assert abs(expected_loss(hinge_loss(), dist) - eps / 2.0) <= 1e-9
    w1 = wasserstein_p(dist, samples, 1.0, ONE).distance
    assert w1 <= eps + 1e-6


def test_extremal_pwa_whole_space_escapes():
    samples = DiscreteDistribution.dirac([0.0])
    eps = 0.6
    rep = extremal_pwa(hinge_loss(), samples, BallSpec(eps, 1.0, ONE))
    assert rep.kind == "asymptotic"
    assert abs(rep.certified_value - eps) <= 1e-9
    for n in (10, 1000, 10**6):
        dist = rep.family.distribution(n)
        risk = expected_loss(hinge_loss(), dist)
        assert abs(risk - eps) <= 1e-6 + 2.0 / n
        cost = float(
            sum(wt * abs(x[0]) for x, wt in zip(dist.atoms, dist.weights))
        )
        assert cost <= eps + 1e-9
    # the n-th member is (1 - eps/n) delta_0 + (eps/n) delta_n: the escaping
    # mass is capped at the transport budget so the risk deficit scales with
    # eps/n rather than 1/n
    d10 = rep.family.distribution(10).merged(1e-9)
    order = np.argsort(d10.atoms[:, 0])
    assert np.allclose(d10.atoms[order, 0], [0.0, 10.0], atol=1e-8)
    assert np.allclose(d10.weights[order], [1.0 - eps / 10, eps / 10], atol=1e-10)


def test_extremal_pwa_single_piece_euclidean():
    rng = np.random.RandomState(16)
    a = np.array([1.0, 2.0])
    loss = PiecewiseAffineLoss([(a, -0.5)])
    atoms = rng.randn(3, 2)
    samples = DiscreteDistribution.from_samples(atoms)
    eps = 0.4
    rep = extremal_pwa(loss, samples, BallSpec(eps, 1.0, EUCLID))
    assert rep.kind == "attained"
    ref = expected_loss(loss, samples) + eps * math.sqrt(5)
    assert abs(rep.certified_value - ref) <= 1e-10 * (1 + abs(ref))
    assert abs(expected_loss(loss, rep.distribution) - ref) <= 1e-9 * (1 + abs(ref))
    w1 = wasserstein_p(rep.distribution, samples, 1.0, EUCLID).distance
    assert w1 <= eps + 1e-6


def test_extremal_pwa_multi_piece_euclidean_family():
    rng = np.random.RandomState(17)
    loss = PiecewiseAffineLoss([(np.array([1.0, 1.0]), 0.0), (np.array([-2.0, 0.5]), 0.3)])
    atoms = rng.randn(3, 2)
    samples = DiscreteDistribution.from_samples(atoms)
    eps = 0.4
    ball = BallSpec(eps, 1.0, EUCLID)
    rep = extremal_pwa(loss, samples, ball)
    assert rep.kind == "asymptotic"
    ref = wc_risk_pwa(loss, samples, ball)
    assert abs(rep.certified_value - ref) <= 1e-9 * (1 + abs(ref))
    n = 10**6
    dist = rep.family.distribution(n)
    assert abs(expected_loss(loss, dist) - ref) <= 1e-6 + 10.0 / n
    assert coupling_budget(rep.family, n, samples, EUCLID, 1.0) <= eps + 1e-9


def test_extremal_pwa_lp_random_certificates():
    rng = np.random.RandomState(18)
    for trial in range(8):
        m = int(rng.randint(1, 3))
        J = int(rng.randint(1, 4))
        loss = random_pwa(rng, m, J)
        atoms = (rng.rand(int(rng.randint(1, 4)), m) - 0.5)
        samples = DiscreteDistribution.from_samples(atoms)
        norm = ONE if trial % 2 == 0 else INF
        support = box_support(m, half=2.0) if trial % 3 else None
        ball = BallSpec(float(0.2 + 0.5 * rng.rand()), 1.0, norm, support)
        rep = extremal_pwa(loss, samples, ball, )
        wc = wc_risk_pwa(loss, samples, ball)
        assert abs(rep.certified_value - wc) <= 1e-6 * (1 + abs(wc))
        if rep.kind == "attained":
            got = expected_loss(loss, rep.distribution)
            assert abs(got - wc) <= 1e-6 * (1 + abs(wc))
            d = wasserstein_p(rep.distribution, samples, 1.0, norm).distance
            assert d <= ball.eps + 1e-6
        else:
            n = 10**6
            dist = rep.family.distribution(n)
            assert abs(expected_loss(loss, dist) - wc) <= 1e-4 * (1 + abs(wc))
            assert coupling_budget(rep.family, n, samples, norm, 1.0) <= ball.eps + 1e-8


def test_extremal_pwa_requires_type_one():
    samples = DiscreteDistribution.dirac([0.0])
    with pytest.raises(UnsupportedCombination):
        extremal_pwa(hinge_loss(), samples, BallSpec(0.5, 2.0, ONE))


def test_family_guards_small_n():
    esc = EscapingAtom(
        origin=np.zeros(1),
        direction=np.ones(1),
        donor=0,
        donor_unit=1.0,
        rate_kind="linear",
        coef=1.0,
    )
    fam = AsymptoticFamily(np.zeros((1, 1)), np.array([1.0]), (esc, esc))
    with pytest.raises(ValueError):
        fam.distribution(1)
    d = fam.distribution(4)
    assert abs(d.weights.sum() - 1.0) <= 1e-12
