"""The cell path of the polyhedral worst cases against the mass-splitting primal.

For a max-affine loss l(xi) = max_j a_j' xi + b_j, support {C xi <= d} and a
polyhedral ground norm whose unit ball is the hull of the rows of V, the
worst-case risk over a type-1 ball is the optimum of the primal that
splits each sample's mass over the pieces (Mohajerin Esfahani and Kuhn
2018, Thm 4.2):

    max  sum_ij w_i [alpha_ij l_j(xi_i) + a_j' V' mu_ij]
    s.t. sum_j alpha_ij = 1,   C V' mu_ij <= (d - C xi_i) alpha_ij,
         sum_ij w_i sum_k mu_ijk <= eps,   alpha, mu >= 0,

where theta_ij = V' mu_ij is the shift of the mass alpha_ij and sum_k mu_ijk
bounds its norm.  A type-inf ball bounds each cell instead:
sum_k mu_ijk <= eps alpha_ij.  The tests build this LP with numpy and solve
it with ``scipy.optimize.linprog(method="highs")``; scipy is a test-only
dependency.  Every attained extremal distribution must reach the value,
lie in the support and within the ball, and have at most N + 1 atoms;
every escaping family must approach the value.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog

from wdro.convex_analysis import NormSpec, SetSpec, norm_eval
from wdro.empirical_risk import (
    BallSpec,
    PiecewiseAffineLoss,
    _BoxCells,
    _box_cells,
    _cell_stack,
    _cells,
    _faces,
    expected_loss,
    extremal_pwa,
    wc_risk_pwa,
)
from wdro.transport import DiscreteDistribution, wasserstein_p

REL = 1e-8  # against HiGHS, whose feasibility tolerance is 1e-7
EXACT = 1e-9  # against the library's own value


def corners(m):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=m)))


def ground(kind, m):
    """The ground norm and the extreme points of its unit ball (as rows)."""
    if kind == "one":
        return NormSpec.p_norm(1), np.vstack([np.eye(m), -np.eye(m)])
    if kind == "inf":
        return NormSpec.p_norm(math.inf), corners(m)
    if kind == "weighted":
        W = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]])[:m, :m]
        return NormSpec.weighted(W, 1.0), np.vstack([np.eye(m), -np.eye(m)]) @ np.linalg.inv(W).T
    # a 1-norm on the first coordinate and 0.5 ||.||_inf on the rest
    norms, sizes = [NormSpec.p_norm(1), NormSpec.scaled(0.5, math.inf)], [1, m - 1]
    first, rest = np.array([[1.0], [-1.0]]), corners(m - 1) / 0.5
    if kind == "block_sum":
        # the hull of the blocks' unit balls, each embedded
        embedded = np.block([[first, np.zeros((2, m - 1))], [np.zeros((len(rest), 1)), rest]])
        return NormSpec.block_sum(norms, sizes), embedded
    # the product of the blocks' unit balls
    product = [np.concatenate(r) for r in itertools.product(first, rest)]
    return NormSpec.block_max(norms, sizes), np.array(product)


def support_rows(kind, atoms, rng):
    m = atoms.shape[1]
    if kind == "box":
        C = np.vstack([np.eye(m), -np.eye(m)])
    elif kind == "halfbox":
        # a box with all but m of its faces left out: mass can escape
        C = np.vstack([np.eye(m), -np.eye(m)])[np.sort(rng.permutation(2 * m)[:m])]
    elif kind == "polyhedron":
        C = rng.normal(size=(m + 3, m))
    elif kind == "halfplane":
        C = rng.normal(size=(1, m))
    else:
        return None, np.zeros((0, m)), np.zeros(0)
    d = (atoms @ C.T).max(axis=0) + rng.uniform(0.05, 1.0, C.shape[0])
    return SetSpec.polyhedron(C, d), C, d


def mass_splitting_value(A, b, atoms, w, eps, p, C, d, V):
    """The worst-case risk from the mass-splitting primal, solved by HiGHS."""
    N, J, K = atoms.shape[0], A.shape[0], V.shape[0]
    L = atoms @ A.T + b
    cells = N * J
    n_var = cells * (1 + K)  # alpha first, then mu cell by cell
    cost = np.zeros(n_var)
    cost[:cells] = -(w[:, None] * L).ravel()
    cost[cells:] = -(w[:, None, None] * (A @ V.T)[None]).ravel()
    A_eq = np.hstack([np.kron(np.eye(N), np.ones((1, J))), np.zeros((N, cells * K))])
    rows = []
    CV = C @ V.T
    slack = d[None, :] - atoms @ C.T
    for i, j in itertools.product(range(N), range(J)):
        cell = i * J + j
        mu = slice(cells + cell * K, cells + (cell + 1) * K)
        block = np.zeros((C.shape[0], n_var))
        block[:, cell] = -slack[i]
        block[:, mu] = CV
        rows.append(block)
        if p != 1.0:
            row = np.zeros((1, n_var))
            row[0, cell], row[0, mu] = -eps, 1.0
            rows.append(row)
    rhs = [np.zeros(sum(r.shape[0] for r in rows))]
    if p == 1.0:
        budget = np.zeros((1, n_var))
        budget[0, cells:] = np.repeat(w, J * K)
        rows.append(budget)
        rhs.append([eps])
    A_ub = np.vstack(rows)
    res = linprog(cost, A_ub=A_ub, b_ub=np.concatenate(rhs), A_eq=A_eq, b_eq=np.ones(N),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -float(res.fun)


def instance(seed, support, norm, N):
    rng = np.random.default_rng([seed, 89, len(support), len(norm), N])
    m = 3 if seed % 3 == 2 else 2
    J = 1 + seed % 3 + (N < 40)
    atoms = rng.uniform(-1.0, 1.0, size=(N, m))
    w = rng.uniform(0.2, 1.0, N)
    loss = PiecewiseAffineLoss(list(zip(rng.normal(size=(J, m)), rng.normal(size=J))))
    spec, C, d = support_rows(support, atoms, rng)
    normspec, V = ground(norm, m)
    eps = float(rng.uniform(0.05, 1.5))
    return loss, DiscreteDistribution(atoms, w / w.sum()), spec, C, d, normspec, V, eps


def check_extremal(rep, loss, samples, ball, value):
    assert rep.certified_value == value
    support = ball.support_for(samples.dim)
    if rep.kind == "attained":
        dist = rep.distribution
        assert dist.n_atoms <= samples.n_atoms + 1
        assert abs(expected_loss(loss, dist) - value) <= EXACT * (1.0 + abs(value))
        assert all(support.contains(atom, tol=1e-9) for atom in dist.atoms)
        res = wasserstein_p(dist, samples, 1.0, ball.norm)
        spent = res.distance
        assert spent <= ball.eps * (1.0 + 1e-9), (spent, ball.eps)
        # the coupling the extremal was built from moves each sample's mass
        # to the atoms it is the source of; its cost bounds W1 from above,
        # within the rounding the transport solve certifies its value to
        moved = np.bincount(rep.sources, dist.weights, samples.n_atoms)
        assert np.allclose(moved, samples.weights, rtol=4e-16, atol=0.0)
        cost = math.fsum(dist.weights * norm_eval(ball.norm, dist.atoms - samples.atoms[rep.sources]))
        assert cost <= ball.eps * (1.0 + 1e-12), (cost, ball.eps)
        phi, psi = res.duals.phi, res.duals.psi
        potentials = np.abs(phi) @ dist.weights + np.abs(psi) @ samples.weights
        roundoff = (dist.n_atoms + samples.n_atoms + 4) * 2.0**-52 * (spent + potentials)
        assert cost >= spent - roundoff, (cost, spent, roundoff)
        return
    deficits = []
    for n in (10**3, 10**6):
        dist = rep.family.distribution(n)
        assert all(support.contains(atom, tol=1e-9) for atom in dist.atoms)
        deficits.append(value - expected_loss(loss, dist))
        assert deficits[-1] >= -EXACT * (1.0 + abs(value))
    spent = wasserstein_p(rep.family.distribution(10**3), samples, 1.0, ball.norm).distance
    assert spent <= ball.eps * (1.0 + 1e-9), (spent, ball.eps)
    # the escaping mass shrinks like 1/n, and the deficit with it
    assert deficits[1] <= 1e-2 * max(deficits[0], 0.0) + EXACT * (1.0 + abs(value))


SUPPORTS = ("box", "halfbox", "polyhedron", "halfplane", "whole")
NORMS = ("one", "inf", "weighted", "block_sum", "block_max")


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("support", SUPPORTS)
def test_cells_match_the_mass_splitting_primal(support, norm):
    for seed, N in enumerate((1, 4, 17, 80)):
        loss, samples, spec, C, d, normspec, V, eps = instance(seed, support, norm, N)
        nominal = expected_loss(loss, samples)
        for p in (1.0, math.inf):
            ball = BallSpec(eps, p, normspec, spec)
            ref = mass_splitting_value(loss.A, loss.b, samples.atoms, samples.weights, eps, p, C, d, V)
            got = wc_risk_pwa(loss, samples, ball)
            assert abs(got - ref) <= REL * (1.0 + abs(ref)), (seed, p, got, ref)
            assert got >= nominal - EXACT * (1.0 + abs(nominal))
            if p == 1.0:
                check_extremal(extremal_pwa(loss, samples, ball), loss, samples, ball, got)


def test_extremals_cover_both_kinds():
    """The grid above holds attained and escaping type-1 extremals alike."""
    kinds = set()
    for support, norm in itertools.product(SUPPORTS, NORMS):
        loss, samples, spec, *_, normspec, _, eps = instance(1, support, norm, 4)
        kinds.add(extremal_pwa(loss, samples, BallSpec(eps, 1.0, normspec, spec)).kind)
    assert kinds == {"attained", "asymptotic"}


def test_bounded_supports_give_attained_extremals():
    """A bounded support has no recession direction, so no mass escapes, also
    when the budget exceeds what the support lets the samples spend."""
    for seed in range(100):
        rng = np.random.default_rng([seed, 103])
        m, N, J = 2, int(rng.integers(5, 60)), int(rng.integers(1, 5))
        atoms = rng.uniform(-1.0, 1.0, size=(N, m))
        C = np.vstack([np.eye(m), -np.eye(m), rng.normal(size=(3, m))])
        d = (atoms @ C.T).max(axis=0) + rng.uniform(0.05, 1.0, len(C))
        loss = PiecewiseAffineLoss(list(zip(rng.normal(size=(J, m)), rng.normal(size=J))))
        samples = DiscreteDistribution(atoms)
        eps = float(10.0 ** rng.uniform(-1.0, 2.0))
        # the weighted norm's rows leave rounding of 1e-17 in the recession cells
        for norm in {"weighted", NORMS[seed % len(NORMS)]}:
            ball = BallSpec(eps, 1.0, ground(norm, m)[0], SetSpec.polyhedron(C, d))
            rep = extremal_pwa(loss, samples, ball)
            assert rep.kind == "attained", (seed, norm)
            check_extremal(rep, loss, samples, ball, rep.certified_value)


METAMORPHIC = [("box", "one"), ("polyhedron", "inf"), ("halfplane", "weighted"), ("whole", "block_max")]


@pytest.mark.parametrize("support,norm", METAMORPHIC)
@pytest.mark.parametrize("p", [1.0, math.inf], ids=["type1", "typeinf"])
def test_relabelling_and_duplicate_atoms_leave_the_value(support, norm, p):
    for seed in range(4):
        loss, samples, spec, _, _, normspec, _, eps = instance(seed, support, norm, 12)
        ball = BallSpec(eps, p, normspec, spec)
        base = wc_risk_pwa(loss, samples, ball)
        tol = 1e-10 * (1.0 + abs(base))
        rng = np.random.default_rng([seed, 97])
        perm = rng.permutation(samples.n_atoms)
        permuted = DiscreteDistribution(samples.atoms[perm], samples.weights[perm])
        assert abs(wc_risk_pwa(loss, permuted, ball) - base) <= tol
        pieces = loss.pieces
        shuffled = PiecewiseAffineLoss([pieces[j] for j in rng.permutation(loss.n_pieces)])
        assert abs(wc_risk_pwa(shuffled, samples, ball) - base) <= tol
        # sample 0 split into two atoms at the same place, 30% and 70% of its mass
        weights = np.append(samples.weights, 0.7 * samples.weights[0])
        weights[0] *= 0.3
        twin = DiscreteDistribution(np.vstack([samples.atoms, samples.atoms[:1]]), weights)
        assert abs(wc_risk_pwa(loss, twin, ball) - base) <= tol
        if p == 1.0:
            assert abs(extremal_pwa(loss, twin, ball).certified_value - base) <= tol


@pytest.mark.parametrize("t", [1e-16, 1e-12, 1e-6, 1e6])
@pytest.mark.parametrize("p", [1.0, math.inf], ids=["type1", "typeinf"])
def test_scaling_the_loss_scales_the_value(p, t):
    """Slopes and intercepts times t: the worst case times t, whatever t is,
    on a polyhedron under the 1-norm and on the whole space under the 2-norm;
    a type-1 extremal certifies the same value."""
    for seed in range(4):
        loss, samples, spec, _, _, normspec, _, eps = instance(seed, "polyhedron", "one", 12)
        scaled = PiecewiseAffineLoss([(t * a, t * b) for a, b in loss.pieces])
        for ball in (BallSpec(eps, p, normspec, spec), BallSpec(eps, p, NormSpec.p_norm(2))):
            base = wc_risk_pwa(loss, samples, ball)
            got = wc_risk_pwa(scaled, samples, ball) / t
            assert abs(got - base) <= 1e-10 * (1.0 + abs(base)), (seed, got, base)
            if p == 1.0:
                got = extremal_pwa(scaled, samples, ball).certified_value / t
                assert abs(got - base) <= 1e-10 * (1.0 + abs(base)), (seed, ball.norm, got, base)


@pytest.mark.parametrize("p", [1.0, math.inf], ids=["type1", "typeinf"])
def test_rescaled_face_rows_leave_the_value(p):
    """C_r x <= d_r times any positive factor is the same face."""
    for seed in range(4):
        loss, samples, spec, C, d, normspec, _, eps = instance(seed, "polyhedron", "inf", 12)
        base = wc_risk_pwa(loss, samples, BallSpec(eps, p, normspec, spec))
        factor = 10.0 ** np.random.default_rng([seed, 101]).choice([-10.0, 10.0], size=len(d))
        rescaled = SetSpec.polyhedron(factor[:, None] * C, factor * d)
        got = wc_risk_pwa(loss, samples, BallSpec(eps, p, normspec, rescaled))
        assert abs(got - base) <= 1e-10 * (1.0 + abs(base)), (seed, got, base)


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-12])
def test_a_radius_just_beyond_a_face_stops_at_the_face(s):
    """A type-inf move blocked both by a face at 1 and by a radius 0.3% further:
    the ratio test must not take the two for a tie at any scale."""
    box = SetSpec.polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.full(4, s))
    loss = PiecewiseAffineLoss([(np.array([1.0, 0.0]), 0.0)])
    ball = BallSpec(1.003 * s, math.inf, NormSpec.p_norm(1), box)
    got = wc_risk_pwa(loss, DiscreteDistribution.dirac([0.0, 0.0]), ball)
    assert abs(got / s - 1.0) <= 1e-12, got / s


def test_forty_samples_in_a_box_take_well_under_a_second():
    """m = 3, four pieces, box |xi_k| <= 6, 1-norm ground cost, eps 0.3."""
    rng = np.random.default_rng(5)
    m, J = 3, 4
    loss = PiecewiseAffineLoss(list(zip(rng.normal(size=(J, m)), rng.normal(size=J))))
    box = SetSpec.polyhedron(np.vstack([np.eye(m), -np.eye(m)]), np.full(2 * m, 6.0))
    samples = DiscreteDistribution(rng.uniform(-3.0, 3.0, size=(40, m)))
    for p, call in [(1.0, wc_risk_pwa), (math.inf, wc_risk_pwa), (1.0, extremal_pwa)]:
        ball = BallSpec(0.3, p, NormSpec.p_norm(1), box)
        best = math.inf
        for _ in range(3):  # the best of three, so one stall of a shared runner does not fail it
            start = time.perf_counter()
            call(loss, samples, ball)
            best = min(best, time.perf_counter() - start)
        assert best < 1.0, (p, call.__name__, best)


BOX_NORMS = {
    "one": (NormSpec.p_norm(1), 3),
    "inf": (NormSpec.p_norm(math.inf), 3),
    "scaled_one": (NormSpec.scaled(0.7, 1), 2),
    "scaled_inf": (NormSpec.scaled(1.3, math.inf), 2),
    "weighted_line": (NormSpec.weighted([[2.5]], 1), 1),
}


def box_cells_instance(seed, m):
    """Faces +-e_k times random factors: some left out (infinite rooms), some
    twice with another offset (the tighter face must win), two samples on a
    face (zero rooms); one slope is 0."""
    rng = np.random.default_rng([seed, 137, m])
    N, J = 6, 3
    atoms = rng.uniform(-1.0, 1.0, size=(N, m))
    C = np.vstack([np.eye(m), -np.eye(m)])
    d = (atoms @ C.T).max(axis=0) + rng.uniform(0.05, 1.0, 2 * m)
    atoms[1, 0], atoms[2, m - 1] = d[0], -d[2 * m - 1]
    reach = (atoms @ C.T).max(axis=0)
    C = np.vstack([C, 3.0 * C, 0.5 * C])
    d = np.concatenate([d, 1.5 * (d + reach), 0.5 * (d + 1.0)])
    keep = np.ones(len(C), dtype=bool)
    if seed % 3:
        keep[seed % (2 * m) :: 2 * m] = False  # one side of one coordinate, with its copies
    factor = rng.uniform(0.5, 2.0, keep.sum())
    C, d = C[keep] * factor[:, None], d[keep] * factor
    A = rng.normal(size=(J, m))
    A[seed % J, seed % m] = 0.0
    return atoms, SetSpec.polyhedron(C, d), A


@pytest.mark.parametrize("name", BOX_NORMS)
def test_box_cells_match_the_cell_lps(name):
    """The closed-form box cells against the same cells solved by LPStack:
    type-1 cells at every breakpoint g = |a_jk| / alpha and between them,
    and ball cells (type-inf values and recession thresholds).  Values
    everywhere, moves off the breakpoints, where they are unique."""
    norm, m = BOX_NORMS[name]
    alpha = norm_eval(norm, np.eye(m)[0])
    for seed in range(6):
        atoms, support, A = box_cells_instance(seed, m)
        N, J = len(atoms), len(A)
        faces, slack = _faces(support, atoms)
        box = _box_cells(norm, faces, slack, A)
        assert box is not None
        moving = np.abs(A) > 0  # a coordinate without slope may move freely under the inf-norm
        for rows, radius in [(np.zeros((1, len(faces))), 1.0), (slack, 0.3), (slack, 2.0), (slack, 1e3)]:
            value, theta = _box_cells(norm, faces, rows, A).ball(radius)
            stack, cost = _cell_stack(norm, faces, rows, A, radius)
            x, objective = stack.solve(cost)
            tol = 1e-9 * (1.0 + radius * np.abs(A).sum())
            assert np.allclose(value.ravel(), -objective, rtol=0.0, atol=tol), (seed, radius)
            lp_theta = x[:, :m].reshape(len(rows), J, m)
            assert np.allclose(theta[:, moving], lp_theta[:, moving], rtol=0.0, atol=tol / alpha), (seed, radius)
        thresholds = _box_cells(norm, faces, np.zeros((1, len(faces))), A).ball(1.0)[0][0]
        kinks = np.unique(np.abs(A) / alpha)
        between = np.append(0.5 * (kinks[1:] + kinks[:-1]), 2.0 * kinks[-1])
        stack, cost = _cell_stack(norm, faces, slack, A)
        for g, on_kink in [(g, True) for g in kinks] + [(g, False) for g in between]:
            h, theta = box.type1(g, thresholds)
            cost[:, -1] = g
            x, objective = stack.solve(cost)
            unbounded = np.isinf(objective).reshape(N, J)
            assert np.array_equal(np.isinf(h), unbounded), (seed, g)
            tol = 1e-9 * (1.0 + np.abs(h[~unbounded]).max(initial=0.0))
            assert np.allclose(h[~unbounded], -objective.reshape(N, J)[~unbounded], rtol=0.0, atol=tol), (seed, g)
            if not on_kink:
                lp_theta = x[:, :m].reshape(N, J, m)
                same = ~unbounded[:, :, None] & moving
                assert np.allclose(theta[same], lp_theta[same], rtol=0.0, atol=tol), (seed, g)


def test_only_boxes_under_separable_norms_take_the_closed_form():
    """Every face +-e_k (none at all included) and alpha ||.||_1 or
    alpha ||.||_inf, or any norm on the line: closed form.  Anything else:
    the LP stack."""
    rng = np.random.default_rng(139)
    for support, norm, m in itertools.product(SUPPORTS, NORMS, (1, 2, 3)):
        if norm in ("block_sum", "block_max") and m == 1:
            continue
        atoms = rng.uniform(-1.0, 1.0, size=(4, m))
        spec = support_rows(support, atoms, rng)[0] or SetSpec.whole(m)
        cells = _cells(ground(norm, m)[0], *_faces(spec, atoms), rng.normal(size=(2, m)))
        box = support in ("box", "halfbox", "whole") or m == 1
        assert isinstance(cells, _BoxCells) == (box and (norm in ("one", "inf") or m == 1)), (support, norm, m)
    scaled = _cells(NormSpec.scaled(0.5, math.inf), np.vstack([np.eye(2), -np.eye(2)]), np.ones((3, 4)), np.ones((1, 2)))
    assert isinstance(scaled, _BoxCells)
