import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from wdro.convex_analysis import (
    NormSpec,
    SetSpec,
    dual_norm_eval,
    norm_eval,
    norm_subgradient,
    support_function_eval,
)
from wdro.errors import DimensionMismatch, InfeasibleSet, UnsupportedCombination


def random_norms(rng, dim):
    yield NormSpec.p_norm(1)
    yield NormSpec.p_norm(2)
    yield NormSpec.p_norm(math.inf)
    yield NormSpec.p_norm(3)
    yield NormSpec.scaled(2.0, 2)
    yield NormSpec.scaled(0.5, 1)
    B = rng.randn(dim, dim)
    yield NormSpec.weighted(B @ B.T + dim * np.eye(dim), 2)
    if dim >= 2:
        yield NormSpec.block_sum([NormSpec.p_norm(2), NormSpec.p_norm(1)], [1, dim - 1])
        yield NormSpec.block_max([NormSpec.p_norm(math.inf), NormSpec.p_norm(2)], [1, dim - 1])


def test_weighted_norm_rejects_singular_weights_at_every_scale():
    # rank-2 PSD 3x3 matrices pass a PSD check with rounding-level smallest
    # eigenvalues of either sign; positive definiteness is judged relative
    # to the largest eigenvalue, so every one of them is refused
    for seed in range(20):
        B = np.random.RandomState(seed).randn(3, 2)
        for s in 10.0 ** np.arange(-8, 9):
            with pytest.raises(ValueError, match="positive definite"):
                NormSpec.weighted(s * (B @ B.T), 2)
            # a well-conditioned weight matrix still constructs
            assert NormSpec.weighted(s * (B @ B.T + 3.0 * np.eye(3)), 2).kind == "weighted"


def test_dual_norm_table_rows():
    assert dual_norm_eval(NormSpec.p_norm(1), [1.0, -2.0]) == 2.0
    assert abs(dual_norm_eval(NormSpec.p_norm(2), [3.0, 4.0]) - 5.0) <= 1e-12
    assert abs(dual_norm_eval(NormSpec.scaled(2.0, 2), [3.0, 4.0]) - 2.5) <= 1e-12


def test_dual_of_dual_recovers_norm():
    rng = np.random.RandomState(0)
    for dim in (1, 2, 4):
        for norm in random_norms(rng, dim):
            for _ in range(5):
                x = rng.randn(dim)
                again = norm.dual_spec().dual_spec()
                assert abs(norm_eval(again, x) - norm_eval(norm, x)) <= 1e-10 * (
                    1 + abs(norm_eval(norm, x))
                )


def test_holder_inequality():
    rng = np.random.RandomState(1)
    for dim in (1, 3, 5):
        for norm in random_norms(rng, dim):
            for _ in range(10):
                x, z = rng.randn(dim), rng.randn(dim)
                lhs = abs(float(x @ z))
                assert lhs <= norm_eval(norm, x) * dual_norm_eval(norm, z) + 1e-9


def test_dual_norm_by_sphere_search():
    # brute-force sup z'x over ||x|| <= 1 agrees with the table value
    rng = np.random.RandomState(2)
    dim = 2
    thetas = np.linspace(0, 2 * np.pi, 20001)
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    for norm in random_norms(rng, dim):
        z = rng.randn(dim)
        scale = np.array([norm_eval(norm, d) for d in dirs])
        sup = np.max(dirs @ z / scale)
        assert abs(sup - dual_norm_eval(norm, z)) <= 1e-5 * (1 + abs(sup))


def test_norm_subgradients_support_identity():
    # g in subdiff(||.||)(x) implies g'x = ||x|| and ||g||_* <= 1
    rng = np.random.RandomState(3)
    for dim in (1, 2, 4):
        for norm in random_norms(rng, dim):
            for _ in range(8):
                x = rng.randn(dim)
                g = norm_subgradient(norm, x)
                assert abs(g @ x - norm_eval(norm, x)) <= 1e-9 * (1 + norm_eval(norm, x))
                assert dual_norm_eval(norm, g) <= 1.0 + 1e-9


def test_stacked_norms_match_row_loop():
    # a (..., m) stack gives the norms of its m-vectors, a vector a float
    rng = np.random.RandomState(4)
    for dim in (1, 2, 4):
        for norm in random_norms(rng, dim):
            for shape in ((7, dim), (3, 5, dim)):
                X = rng.randn(*shape)
                for f in (norm_eval, dual_norm_eval):
                    stacked = f(norm, X)
                    rows = [f(norm, x) for x in X.reshape(-1, dim)]
                    assert all(isinstance(r, float) for r in rows)
                    assert stacked.shape == shape[:-1]
                    assert np.allclose(stacked.ravel(), rows, rtol=1e-13, atol=0.0)


def test_support_ball():
    S = SetSpec.ball(NormSpec.p_norm(2), 3.0, 2)
    assert abs(support_function_eval(S, [0.0, 4.0]) - 12.0) <= 1e-12


def test_support_whole_space():
    S = SetSpec.whole(2)
    assert support_function_eval(S, [0.0, 0.0]) == 0.0
    assert support_function_eval(S, [1e-3, 0.0]) == math.inf


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-100, 1e-12, 1.0, 1e100, 1e300])
def test_support_whole_space_is_infinite_for_every_nonzero_direction(s):
    S = SetSpec.whole(2)
    assert support_function_eval(S, [s, 0.0]) == math.inf
    assert support_function_eval(S, [0.0, -s]) == math.inf
    assert support_function_eval(S, [0.0, 0.0]) == 0.0


def test_support_unit_box():
    C = np.vstack([np.eye(2), -np.eye(2)])
    d = np.ones(4)
    S = SetSpec.polyhedron(C, d)
    assert abs(support_function_eval(S, [1.0, -1.0]) - 2.0) <= 1e-9


def test_support_polyhedron_unbounded_direction():
    # half-plane x <= 1 in 2-D: support finite only along +e1
    S = SetSpec.polyhedron([[1.0, 0.0]], [1.0])
    assert abs(support_function_eval(S, [2.0, 0.0]) - 2.0) <= 1e-9
    assert support_function_eval(S, [0.0, 1.0]) == math.inf
    assert support_function_eval(S, [-1.0, 0.0]) == math.inf


def test_support_empty_polyhedron_raises():
    S = SetSpec.polyhedron([[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(InfeasibleSet):
        support_function_eval(S, [1.0])


def test_polyhedron_without_faces_is_refused():
    with pytest.raises(ValueError, match=r"SetSpec\.whole\(2\)"):
        SetSpec.polyhedron(np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("n", [2.9, True, "2", [2], math.inf, math.nan])
def test_sizes_and_dimensions_must_be_integers(n):
    # int() would cut 2.9 to 2 and read True as 1
    p2 = NormSpec.p_norm(2)
    for make in (
        lambda: SetSpec.whole(n),
        lambda: SetSpec.ball(p2, 1.0, n),
        lambda: NormSpec.block_sum([p2, p2], [1, n]),
        lambda: NormSpec.block_max([p2, p2], [n, 1]),
    ):
        with pytest.raises(TypeError, match="integer"):
            make()


def test_integral_sizes_of_any_numeric_type_are_taken():
    assert SetSpec.whole(2.0).dim == 2 and type(SetSpec.whole(np.int64(3)).dim) is int
    assert NormSpec.block_sum([NormSpec.p_norm(2)] * 2, np.array([1.0, 2.0])).sizes == (1, 2)


def test_support_intersection_box_and_halfplane():
    box = SetSpec.polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    half = SetSpec.polyhedron([[1.0, 0.0]], [0.25])
    S = SetSpec.intersection([box, half])
    # sup x1 + x2 over box intersect {x1 <= 1/4} = 1/4 + 1
    assert abs(support_function_eval(S, [1.0, 1.0]) - 1.25) <= 1e-9


def test_support_intersection_with_ball():
    box = SetSpec.polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    ball = SetSpec.ball(NormSpec.p_norm(1), 0.5, 2)
    S = SetSpec.intersection([box, ball])
    # the 1-ball of radius 1/2 sits inside the box: sup z'x = 0.5 ||z||_inf
    assert abs(support_function_eval(S, [1.0, 1.0]) - 0.5) <= 1e-9


def test_support_intersection_euclidean_ball_rejected():
    box = SetSpec.polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    ball = SetSpec.ball(NormSpec.p_norm(2), 0.5, 2)
    with pytest.raises(UnsupportedCombination):
        support_function_eval(SetSpec.intersection([box, ball]), [1.0, 1.0])


def test_support_homogeneous():
    rng = np.random.RandomState(6)
    C = rng.randn(5, 3)
    d = rng.rand(5) + 0.5
    S = SetSpec.polyhedron(C, d)
    z = rng.randn(3)
    s1 = support_function_eval(S, z)
    if s1 < math.inf:
        s3 = support_function_eval(S, 3.0 * z)
        assert abs(s3 - 3.0 * s1) <= 1e-9 * (1 + abs(s1))


def test_contains_takes_a_stack_row_by_row():
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, size=(40, 2))
    box = SetSpec.polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    disk = SetSpec.ball(NormSpec.p_norm(2), 1.5, 2)
    in_box, in_disk = np.abs(X).max(axis=1) <= 1.0, np.linalg.norm(X, axis=1) <= 1.5
    for spec, want in [(SetSpec.whole(2), np.ones(40, bool)), (box, in_box), (disk, in_disk),
                       (SetSpec.intersection([box, disk]), in_box & in_disk)]:
        inside = spec.contains(X)
        assert inside.dtype == bool and inside.tolist() == want.tolist(), spec.kind
        assert [spec.contains(x) for x in X] == want.tolist()
        assert spec.contains(X.reshape(4, 10, 2)).shape == (4, 10)
    with pytest.raises(ValueError):
        box.contains([[0.0, np.nan]])


SUPPORT_SCALES = (1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8)


def test_support_polyhedron_is_scale_equivariant():
    # sup z'x over {C x <= s d} is s times the value at s = 1
    z = np.array([1.0, 0.3])
    for seed in range(30):
        rng = np.random.default_rng([seed, 53])
        C = rng.normal(size=(6, 2))
        d = rng.uniform(0.1, 1.0, 6)
        base = support_function_eval(SetSpec.polyhedron(C, d), z)
        for s in SUPPORT_SCALES:
            got = support_function_eval(SetSpec.polyhedron(C, s * d), z)
            assert abs(got / s - base) <= 1e-9 * (1 + abs(base)), (seed, s, got / s, base)


def test_support_intersection_is_scale_equivariant():
    # box, half-plane and polyhedral ball, every offset and radius scaled by s
    box_rows = np.vstack([np.eye(2), -np.eye(2)])
    for seed in range(30):
        rng = np.random.default_rng([seed, 59])
        half, a, c = rng.uniform(0.5, 2.0, 4), rng.normal(size=(1, 2)), rng.uniform(0.1, 1.0)
        norm, radius = NormSpec.p_norm(1 if seed % 2 else math.inf), rng.uniform(0.5, 2.0)
        z = rng.normal(size=2)

        def support(s):
            S = SetSpec.intersection(
                [
                    SetSpec.polyhedron(box_rows, s * half),
                    SetSpec.polyhedron(a, [s * c]),
                    SetSpec.ball(norm, s * radius, 2),
                ]
            )
            return support_function_eval(S, z)

        base = support(1.0)
        for s in SUPPORT_SCALES:
            got = support(s)
            assert abs(got / s - base) <= 1e-9 * (1 + abs(base)), (seed, s, got / s, base)


def highs_support(C, d, z):
    """sup z'x over {C x <= d} by scipy's HiGHS, +inf when unbounded."""
    res = linprog(-z, A_ub=C, b_ub=d, bounds=[(None, None)] * z.size, method="highs")
    assert res.status in (0, 3), res.message
    return math.inf if res.status == 3 else -res.fun


@pytest.mark.parametrize("far", [1e8, 1e10, 1e12])
def test_support_polyhedron_ignores_a_far_face(far):
    # one face far beyond the others must not set the scale the others are solved in
    for seed in range(30):
        rng = np.random.default_rng([seed, 53])
        C = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(1, 2))])
        d = np.append(rng.uniform(0.1, 1.0, 6), far)
        for z in (np.array([1.0, 0.3]), rng.normal(size=2)):
            ref = highs_support(C, d, z)
            got = support_function_eval(SetSpec.polyhedron(C, d), z)
            assert got == ref or abs(got - ref) <= 1e-9 * (1 + abs(ref)), (seed, got, ref)


@pytest.mark.parametrize("radius", [1e8, 1e10, 1e12])
def test_support_intersection_ignores_a_huge_ball(radius):
    # a ball far larger than the box must not set the scale the box is solved in
    box_rows = np.vstack([np.eye(2), -np.eye(2)])
    for seed in range(30):
        rng = np.random.default_rng([seed, 61])
        half, a, c = rng.uniform(0.5, 2.0, 4), rng.normal(size=(1, 2)), rng.uniform(0.1, 1.0)
        ball = SetSpec.ball(NormSpec.p_norm(1 if seed % 2 else math.inf), radius, 2)
        z = rng.normal(size=2)
        for C, d in ((box_rows, half), (np.vstack([box_rows, a]), np.append(half, c))):
            ref = highs_support(C, d, z)
            got = support_function_eval(SetSpec.intersection([SetSpec.polyhedron(C, d), ball]), z)
            assert got == ref or abs(got - ref) <= 1e-9 * (1 + abs(ref)), (seed, got, ref)


def polyhedral_ball_faces(p, radius, m):
    """The faces of the 1-norm or inf-norm ball of the radius in R^m."""
    if p == 1:
        signs = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
        return signs, np.full(len(signs), radius)
    return np.vstack([np.eye(m), -np.eye(m)]), np.full(2 * m, radius)


def set_away_from_the_origin(seed):
    """A seeded polyhedron around a center xc that a face cuts off from the
    origin, alone or intersected with a polyhedral ball (one in three too
    small to reach it), a second polyhedron, or two faces a gap apart.

    Returns the set, its faces (C, d) and a direction z."""
    rng = np.random.default_rng([seed, 97])
    m = int(rng.integers(1, 4))
    C = rng.normal(size=(int(rng.integers(1, 2 * m + 3)), m))
    xc = rng.normal(size=m)
    xc *= rng.uniform(1.5, 6.0) / np.linalg.norm(xc)
    d = C @ xc + rng.uniform(0.05, 1.0, len(C))
    cut = -xc / np.linalg.norm(xc)  # a face between xc and the origin
    C, d = np.vstack([C, cut]), np.append(d, cut @ xc + rng.uniform(0.05, 1.0))
    members, faces = [SetSpec.polyhedron(C, d)], [(C, d)]
    if seed % 4 == 1:
        p = 1 if rng.random() < 0.5 else math.inf
        reach = np.abs(xc).sum() if p == 1 else np.abs(xc).max()
        radius = reach * (rng.uniform(1.05, 3.0) if rng.random() < 0.7 else rng.uniform(0.05, 0.2))
        members.append(SetSpec.ball(NormSpec.p_norm(p), radius, m))
        faces.append(polyhedral_ball_faces(p, radius, m))
    elif seed % 4 == 2:
        C2 = rng.normal(size=(2, m))
        faces.append((C2, C2 @ xc + rng.uniform(-0.3, 1.0, 2)))
        members.append(SetSpec.polyhedron(*faces[-1]))
    elif seed % 4 == 3:
        e, gap = rng.normal(size=m), rng.uniform(0.01, 1.0)
        faces.append((np.vstack([e, -e]), np.array([e @ xc - gap, -(e @ xc)])))
        members.append(SetSpec.polyhedron(*faces[-1]))
    S = members[0] if len(members) == 1 else SetSpec.intersection(members)
    return S, np.vstack([f[0] for f in faces]), np.concatenate([f[1] for f in faces]), rng.normal(size=m)


def scaled_set(S, s):
    """S with every offset and radius times s: the set s S."""
    if S.kind == "polyhedron":
        return SetSpec.polyhedron(S.C_matrix(), s * S.d_vector())
    if S.kind == "ball":
        return SetSpec.ball(S.norm, s * S.radius, S.dim)
    return SetSpec.intersection([scaled_set(M, s) for M in S.members])


def test_support_away_from_the_origin_agrees_with_highs():
    # 400 seeded sets that exclude the origin: HiGHS finds 214 optimal,
    # 43 unbounded and 143 empty; the value of s S is s times the value of S
    statuses = set()
    for seed in range(400):
        S, C, d, z = set_away_from_the_origin(seed)
        res = linprog(-z, A_ub=C, b_ub=d, bounds=[(None, None)] * z.size, method="highs")
        assert res.status in (0, 2, 3), res.message
        statuses.add(res.status)
        for s in (1.0, 1e-8, 1e6):
            if res.status == 2:
                with pytest.raises(InfeasibleSet):
                    support_function_eval(scaled_set(S, s), z)
                continue
            got = support_function_eval(scaled_set(S, s), z) / s
            if res.status == 3:
                assert got == math.inf, (seed, s, got)
            else:
                # relative to the sizes of the terms of z'x at the maximizer
                assert abs(got + res.fun) <= 1e-9 * (np.abs(z) @ np.abs(res.x)), (seed, s, got, -res.fun)
    assert statuses == {0, 2, 3}


def test_support_of_an_empty_set_raises_in_every_direction():
    # x_1 <= 0 and x_1 >= 1 in the plane: a direction off the faces' normals
    # must not read the empty set as unbounded
    S = SetSpec.polyhedron([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])
    for z in ([1.0, 0.0], [0.0, 1.0], [0.3, -2.0], [0.0, 0.0]):
        with pytest.raises(InfeasibleSet):
            support_function_eval(S, z)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        support_function_eval(SetSpec.whole(2), [1.0, 2.0, 3.0])


def lp_representable_norms(dim):
    yield NormSpec.p_norm(1)
    yield NormSpec.p_norm(math.inf)
    yield NormSpec.scaled(2.0, 1)
    yield NormSpec.scaled(0.25, math.inf)
    if dim >= 2:
        yield NormSpec.block_sum(
            [NormSpec.p_norm(1), NormSpec.p_norm(math.inf)], [1, dim - 1]
        )
        yield NormSpec.block_max(
            [NormSpec.p_norm(math.inf), NormSpec.p_norm(1)], [1, dim - 1]
        )


def _max_over_unit_ball(norm, dim, z):
    """max z'x over norm(x) <= 1 as an LP on the norm's epigraph rows.

    Variables (x free, t >= 0, u >= 0): t <= 1 and G x + g t + H u <= 0.
    """
    from wdro.convex_analysis import norm_epigraph_rows
    from wdro.simplex import LPStack

    G, H, g = norm_epigraph_rows(norm, dim)
    k = H.shape[1]
    A = np.vstack([np.eye(1, dim + 1 + k, dim), np.column_stack([G, g, H])])
    b = np.append(1.0, np.zeros(g.size))
    cost = np.concatenate([-np.asarray(z, dtype=float), np.zeros(1 + k)])
    return -LPStack(A, b, dim).solve(cost)[1][0]


def test_norm_rows_reproduce_dual_norm_via_lp():
    # maximize z'x over ||x|| <= 1 written with norm_epigraph_rows equals
    # the dual norm of z
    rng = np.random.RandomState(7)
    for dim in (1, 2, 4):
        for norm in lp_representable_norms(dim):
            assert norm.is_lp_representable(dim)
            z = rng.randn(dim)
            ref = dual_norm_eval(norm, z)
            assert abs(_max_over_unit_ball(norm, dim, z) - ref) <= 1e-8 * (1 + ref)


def test_norm_rows_reject_euclidean_in_dim_two():
    from wdro.convex_analysis import norm_epigraph_rows

    with pytest.raises(UnsupportedCombination):
        norm_epigraph_rows(NormSpec.p_norm(2), 2)


def test_norm_rows_scalar_euclidean_allowed():
    # any norm on the line is a multiple of |.|, so the LP path accepts it
    assert abs(_max_over_unit_ball(NormSpec.scaled(3.0, 2), 1, [1.0]) - 1.0 / 3.0) <= 1e-9
