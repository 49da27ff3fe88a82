"""Scale equivariance of the worst-case LPs.

Scaling the atoms, the support offsets d, the radius eps and the loss
intercepts b by s scales the worst-case risk of a max-affine loss by s and
leaves the kind of its extremal distribution unchanged.  Each instance is
solved at s = 1 and at scales from 1e-10 to 1e8; value/s must match the
s = 1 value to 1e-8 relative.
"""

import itertools
import math

import numpy as np
import pytest

from wdro.convex_analysis import NormSpec, SetSpec
from wdro.empirical_risk import BallSpec, PiecewiseAffineLoss, extremal_pwa, wc_risk_pwa
from wdro.transport import DiscreteDistribution

SCALES = (1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e8)
SEEDS = range(8)
REL = 1e-8


def instance(seed, s, p, box):
    """A seeded 2-D instance with every length and intercept scaled by s."""
    rng = np.random.default_rng([seed, 41])
    N, m, J = 6, 2, 3
    atoms = rng.uniform(-1.0, 1.0, size=(N, m))
    w = rng.uniform(0.2, 1.0, N)
    A = rng.normal(size=(J, m))
    b = rng.normal(size=J)
    half = 1.0 + rng.uniform(0.1, 1.0, size=2 * m)
    eps = float(rng.uniform(0.05, 0.8))
    norm = NormSpec.p_norm(1.0 if seed % 2 == 0 else math.inf)
    support = SetSpec.polyhedron(np.vstack([np.eye(m), -np.eye(m)]), s * half) if box else None
    loss = PiecewiseAffineLoss(list(zip(A, s * b)))
    samples = DiscreteDistribution(s * atoms, w / w.sum())
    return loss, samples, BallSpec(s * eps, p, norm, support)


def close(scaled, s, base):
    return abs(scaled / s - base) <= REL * (1.0 + abs(base))


@pytest.mark.parametrize("box", [True, False], ids=["box", "whole"])
@pytest.mark.parametrize("p", [1.0, math.inf], ids=["type1", "typeinf"])
def test_wc_risk_lp_is_scale_equivariant(p, box):
    for seed in SEEDS:
        base = wc_risk_pwa(*instance(seed, 1.0, p, box))
        for s in SCALES:
            got = wc_risk_pwa(*instance(seed, s, p, box))
            assert close(got, s, base), (seed, s, got / s, base)


@pytest.mark.parametrize("box", [True, False], ids=["box", "whole"])
def test_extremal_lp_keeps_kind_and_value_under_scaling(box):
    for seed in SEEDS:
        base = extremal_pwa(*instance(seed, 1.0, 1.0, box))
        for s in SCALES:
            got = extremal_pwa(*instance(seed, s, 1.0, box))
            assert got.kind == base.kind, (seed, s, got.kind, base.kind)
            assert close(got.certified_value, s, base.certified_value), (seed, s)


@pytest.mark.parametrize("s", [1.0, 1e-10])
def test_atom_outside_a_small_box_is_rejected_at_every_scale(s):
    box = SetSpec.polyhedron([[1.0], [-1.0]], [2.0 * s, 2.0 * s])
    assert box.contains([2.0 * s]) and box.contains([-2.0 * s])
    assert not box.contains([5.0 * s])
    loss = PiecewiseAffineLoss([(np.array([1.0]), 0.0)])
    samples = DiscreteDistribution.dirac([5.0 * s])
    with pytest.raises(ValueError, match="outside the support"):
        wc_risk_pwa(loss, samples, BallSpec(s, 1.0, NormSpec.p_norm(1.0), box))


@pytest.mark.parametrize("half", [1e8, 1e10])
@pytest.mark.parametrize("p", [1.0, math.inf], ids=["type1", "typeinf"])
def test_far_box_gives_the_whole_space_value(p, half):
    """A box far beyond the data changes the worst case by at most eps * gap / half.

    A type-inf ball never reaches its faces, so the value is the whole-space
    one.  In a type-1 ball an escaping mass must stop at a face, so it needs
    at least eps / half of the mass, which it takes from pieces that lie at
    most ``gap`` below the sample's loss.
    """
    for seed in SEEDS:
        loss, samples, ball = instance(seed, 1.0, p, box=False)
        whole = wc_risk_pwa(loss, samples, ball)
        m = samples.dim
        far = SetSpec.polyhedron(np.vstack([np.eye(m), -np.eye(m)]), np.full(2 * m, half))
        far_ball = BallSpec(ball.eps, p, ball.norm, far)
        L = loss.piece_table(samples.atoms)
        slop = 0.0 if p != 1.0 else ball.eps * float(np.ptp(L, axis=1).max()) / (half - 1.0)
        got = wc_risk_pwa(loss, samples, far_ball)
        tol = REL * (1.0 + abs(whole))
        assert whole - slop - tol <= got <= whole + tol, (seed, got, whole)
        if p == 1.0:
            rep = extremal_pwa(loss, samples, far_ball)
            assert abs(rep.certified_value - got) <= REL * (1.0 + abs(got)), (seed, rep.kind)


@pytest.mark.parametrize("ground", [1.0, math.inf], ids=["one", "inf"])
def test_huge_type_inf_radius_reaches_the_corner_maximum(ground):
    """A type-inf radius of 1e10 in a box of half-width 2 lets every sample
    reach every corner, so the worst case is the loss's largest corner value."""
    for seed in range(6):
        rng = np.random.default_rng([seed, 61])
        N, m, J = 6, 2, 3
        atoms = rng.uniform(-2.0, 2.0, size=(N, m))
        w = rng.uniform(0.2, 1.0, N)
        loss = PiecewiseAffineLoss(list(zip(rng.normal(size=(J, m)), rng.normal(size=J))))
        box = SetSpec.polyhedron(np.vstack([np.eye(m), -np.eye(m)]), np.full(2 * m, 2.0))
        corners = 2.0 * np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        top = float(loss.value(corners).max())
        ball = BallSpec(1e10, math.inf, NormSpec.p_norm(ground), box)
        got = wc_risk_pwa(loss, DiscreteDistribution(atoms, w / w.sum()), ball)
        assert abs(got - top) <= REL * (1.0 + abs(top)), (seed, got, top)
