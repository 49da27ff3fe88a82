"""How the scalar roots are started and how many evaluations they take.

The shrinkage root is checked against scipy's brentq on the shrinkage
equation in gamma, over dimensions, ranks and scales; the secular equation
and the Frank-Wolfe line search must never evaluate the same point twice.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

import wdro.mmse as mmse_module
import wdro.numerics as numerics
import wdro.shrinkage as shrinkage
from wdro.errors import NoBracket
from wdro.mmse import JointMoments, fw_solve
from wdro.numerics import monotone_root, secular_root
from wdro.transport import MomentPair


def gamma_residual(gamma, lam, eps):
    """eps^2 gamma - m + sum h(lam gamma), h(u) = 2u / (sqrt(u^2 + 4u) + u)."""
    u = lam * gamma
    h = 2.0 * u / (np.sqrt(u * u + 4.0 * u) + u + (u == 0.0))  # 0 where u = 0
    return eps**2 * gamma - lam.size + float(h.sum())


def brentq_gamma(lam, eps):
    hi = 1.0
    while gamma_residual(hi, lam, eps) < 0.0:
        hi *= 2.0
    return brentq(gamma_residual, 0.0, hi, args=(lam, eps), xtol=1e-300, rtol=1e-15, maxiter=2000)


def sweep_cases():
    """Seeded covariances: m in 1..60, fewer and more samples than m, scales
    1e-10..1e8 with eps from 0.01 to 1 times the scale (log-uniform), and
    zero covariances."""
    rng = np.random.default_rng(13)
    for m in (1, 2, 3, 5, 8, 13, 21, 34, 60):
        for n in sorted({max(1, m // 2), 2 * m + 1}):
            for scale in (1e-10, 1e-4, 1.0, 1e3, 1e8):
                x = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0, size=m) * scale
                eps = 10.0 ** rng.uniform(-2.0, 0.0) * scale
                yield shrinkage.sample_moments(x), eps
        for scale in (1e-10, 1.0, 1e8):
            yield MomentPair(np.zeros(m), np.zeros((m, m))), 0.3 * scale


def test_shrinkage_root_matches_brentq_in_few_evaluations(monkeypatch):
    evaluations = []  # per root, ends handed over by the caller included

    def counted(f, lo, hi, **known):
        def g(x):
            evaluations[-1] += 1
            return f(x)

        evaluations.append(len(known))
        return monotone_root(g, lo, hi, **known)

    monkeypatch.setattr(shrinkage, "monotone_root", counted)
    for moments, eps in sweep_cases():
        res = shrinkage.wasserstein_shrinkage(moments, eps)
        assert type(res.gamma_star) is float
        lam = np.clip(np.linalg.eigvalsh(moments.sigma), 0.0, None)
        lam[lam < 1e-12 * lam.max(initial=0.0)] = 0.0
        ref = brentq_gamma(lam, eps)
        assert abs(res.gamma_star - ref) <= 1e-8 * ref, (moments.dim, eps)
        assert abs(gamma_residual(res.gamma_star, lam, eps)) <= 1e-10
        zero = res.eigen_map[:, 0] == 0.0
        assert np.all(res.eigen_map[zero, 1] == res.gamma_star)
    assert len(evaluations) > 100
    # 7.4 from the closed-form bracket in q; bisecting in gamma from
    # [0, 2m / eps^2] took 8.5 on these cases
    assert np.mean(evaluations) <= 8.0


def recording_monotone_root(calls):
    """A monotone_root that records each call: its ends, the end values it
    was handed and every point it evaluated."""

    def recorded(f, lo, hi, f_lo=None, f_hi=None, **options):
        points = []

        def g(x):
            points.append(x)
            return f(x)

        root = monotone_root(g, lo, hi, f_lo=f_lo, f_hi=f_hi, **options)
        calls.append((f, lo, hi, f_lo, f_hi, points))
        return root

    return recorded


def test_secular_root_evaluates_each_point_once(monkeypatch):
    calls = []
    monkeypatch.setattr(numerics, "monotone_root", recording_monotone_root(calls))
    rng = np.random.default_rng(3)
    for _ in range(40):
        k = int(rng.integers(1, 8))
        numer = rng.uniform(0.0, 2.0, size=k) ** 2
        poles = rng.normal(size=k)
        if rng.random() < 0.3:
            poles[int(rng.integers(k))] = max(0.0, poles.max())  # x0 on a pole
        root = secular_root(numer, poles, float(rng.uniform(0.05, 1.0)))
        assert type(root) is float
    assert len(calls) > 20
    for f, lo, hi, f_lo, f_hi, points in calls:
        # secular_root evaluated the left end itself and handed it over
        assert f_lo is not None
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            again = f(lo)
        assert again[0] == f_lo[0]
        assert again[1] == f_lo[1] or (np.isnan(again[1]) and np.isnan(f_lo[1]))
        seen = points + [lo]
        assert len(set(seen)) == len(seen)


def test_line_search_evaluates_each_point_once(monkeypatch):
    calls = []
    monkeypatch.setattr(mmse_module, "monotone_root", recording_monotone_root(calls))
    evaluations = []
    segment = mmse_module._segment

    def counted(*args):
        slope = segment(*args)

        def at(t):
            evaluations.append(t)
            return slope(t)

        return at

    monkeypatch.setattr(mmse_module, "_segment", counted)
    rng = np.random.default_rng(8)
    for m in (3, 4, 6):
        R = rng.normal(size=(m, m))
        joint = JointMoments(1, m - 1, np.zeros(m), R @ R.T / m + 0.5 * np.eye(m))
        calls.clear()
        evaluations.clear()
        res = fw_solve(joint, 0.3, iters=40)
        assert res.target_met
        searches = len(res.gaps) - 1
        assert len(calls) >= 2
        # the slope at t = 0 is the gap, handed over; each search evaluates
        # the slope at the direction (t = 1), and the root adds only
        # interior points
        interior = [t for *_, points in calls for t in points]
        assert len(evaluations) == searches + len(interior)
        assert evaluations.count(1.0) == searches
        for f, lo, hi, f_lo, f_hi, points in calls:
            assert f_lo is not None and f_hi is not None
            assert len(set(points)) == len(points)
            assert all(lo < t < hi for t in points)


def test_roots_are_python_floats():
    def f(x):
        return np.float64(x * x - 2.0), np.float64(2.0 * x)

    assert type(monotone_root(f, 0.0, 2.0)) is float
    assert type(monotone_root(f, 0.0, 2.0, f_lo=f(0.0), f_hi=f(2.0))) is float
    assert type(secular_root(np.array([1.0, 0.5]), np.array([-1.0, 0.0]), 0.1)) is float


def test_monotone_root_takes_the_ends_it_is_handed():
    evaluated = []

    def f(x):
        evaluated.append(x)
        return x * x - 2.0, 2.0 * x

    x = monotone_root(f, 0.0, 2.0, f_lo=(-2.0, 0.0), f_hi=(2.0, 4.0))
    assert abs(x - 2.0**0.5) <= 4e-16 * 2.0**0.5
    assert 0.0 not in evaluated and 2.0 not in evaluated
    with pytest.raises(NoBracket):
        monotone_root(f, 0.0, 2.0, f_lo=(1.0, 0.0))
