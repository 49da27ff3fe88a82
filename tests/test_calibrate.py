import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.stats import norm

from wdro.calibrate import (
    MomentTailModel,
    TailModel,
    cv_radius,
    eta_schedule,
    fold_assignments,
    radius_empirical,
    radius_moments,
)
from wdro.empirical_risk import BallSpec, PiecewiseAffineLoss, wc_risk_pwa
from wdro.errors import InsufficientData, UnsupportedCase
from wdro.transport import DiscreteDistribution


# ---------------------------------------------------------------------------
# Oracles: independent re-substitution of the radius formulas, written with
# numpy instead of math and with the branch condition rearranged.


def radius_oracle(alpha, c1, c2, m, N, eta, p):
    log_term = np.log(c1) - np.log(eta)
    if c2 * N >= log_term:
        expo = p / m if p / m < 0.5 else 0.5
    else:
        expo = p / alpha
    return float(np.exp(expo * np.log(log_term / (c2 * N))))


def moment_oracle(c, N, eta):
    return float((np.log(c) - np.log(eta)) * N ** (-0.5))


# Hand-derived Gaussian mean of the hinge function max(0, 1 - xi) for
# xi ~ N(mu, sd^2): (1 - mu) Phi((1 - mu)/sd) + sd phi((1 - mu)/sd).
def hinge_true_risk(mu, sd):
    z = (1.0 - mu) / sd
    return (1.0 - mu) * norm.cdf(z) + sd * norm.pdf(z)


def test_hinge_risk_oracle_against_quadrature():
    for mu, sd in [(0.5, 1.0), (-0.3, 0.7), (2.0, 1.5)]:
        val, _ = quad(lambda x: max(0.0, 1.0 - x) * norm.pdf(x, mu, sd), mu - 40 * sd, 1.0)
        assert abs(hinge_true_risk(mu, sd) - val) < 1e-9


# Frozen by substituting c1=2, c2=1, eta=0.5, N=100, p=1, m=4, alpha=3:
# log(2/0.5) = log 4 ~ 1.386 <= 100, so the exponent is min(1/4, 1/2) = 1/4
# and the radius is (log 4 / 100)^(1/4).
LARGE_N_VALUE = 0.3431340878600485
# Same model at N=1 < log 4: exponent flips to p/alpha = 1/3, (log 4)^(1/3).
SMALL_N_VALUE = 1.115026405460952
# Moment radius with c=2, eta=0.5, N=100: log(4)/10.
MOMENT_VALUE = 0.13862943611198905


def test_empirical_radius_frozen_examples():
    model = TailModel(alpha=3.0, A=1.0, m=4, c1=2.0, c2=1.0)
    assert abs(radius_empirical(model, 100, 0.5, 1.0) - LARGE_N_VALUE) < 1e-12
    assert abs(radius_empirical(model, 1, 0.5, 1.0) - SMALL_N_VALUE) < 1e-12


def test_empirical_radius_branches_meet_at_threshold():
    # With c1 = e and eta = 1 the log term is 1, so the branch threshold sits
    # at N = 1/c2 where the base equals 1 and both exponents give radius 1.
    model = TailModel(alpha=5.0, A=1.0, m=3, c1=math.e, c2=1.0)
    assert radius_empirical(model, 1, 1.0, 1.0) == 1.0
    # Just beyond the threshold the two branch formulas stay within O(gap).
    model2 = TailModel(alpha=5.0, A=1.0, m=3, c1=math.e, c2=0.4999)
    lo = radius_empirical(model2, 1, 1.0, 1.0)  # N below 1/c2: small-N branch
    hi = radius_empirical(model2, 2, 1.0, 1.0)  # N above: large-N branch
    assert lo > hi
    assert abs(lo - 1.0) < 0.2 and abs(hi - 1.0) < 0.2


def test_empirical_radius_matches_oracle_grid():
    cases = [
        (3.0, 2.0, 1.0, 4, 100, 0.5, 1.0),
        (2.5, math.e, 1.0, 3, 7, 0.1, 1.0),
        (4.0, 1.5, 0.3, 5, 2, 0.9, 1.5),
        (6.0, 10.0, 2.0, 2, 10_000, 0.01, 3.0),
        (2.0, 3.0, 0.7, 8, 3, 0.25, 1.0),
        (9.0, 2.0, 1.0, 1, 50, 0.05, 2.0),
    ]
    for alpha, c1, c2, m, N, eta, p in cases:
        model = TailModel(alpha=alpha, A=1.0, m=m, c1=c1, c2=c2)
        got = radius_empirical(model, N, eta, p)
        want = radius_oracle(alpha, c1, c2, m, N, eta, p)
        assert abs(got - want) <= 1e-13 * max(1.0, want)


def test_empirical_radius_rejections():
    model = TailModel(alpha=3.0, A=1.0, m=4)
    with pytest.raises(UnsupportedCase):
        radius_empirical(model, 100, 0.5, 2.0)  # p = m/2
    with pytest.raises(ValueError):
        radius_empirical(TailModel(alpha=1.5, A=1.0, m=4), 100, 0.5, 1.5)
    with pytest.raises(ValueError):
        radius_empirical(model, 100, 0.0, 1.0)
    with pytest.raises(ValueError):
        radius_empirical(model, 100, 1.2, 1.0)
    with pytest.raises(ValueError):
        radius_empirical(model, 0, 0.5, 1.0)
    with pytest.raises(ValueError):
        radius_empirical(model, 100, 0.5, 0.5)
    with pytest.raises(ValueError):
        TailModel(alpha=3.0, A=0.0, m=4)
    with pytest.raises(ValueError):
        TailModel(alpha=3.0, A=1.0, m=4, c1=1.0)
    with pytest.raises(ValueError):
        TailModel(alpha=3.0, A=1.0, m=4, c2=0.0)
    with pytest.raises(ValueError):
        TailModel(alpha=3.0, A=1.0, m=0)


def test_moment_radius_values():
    model = MomentTailModel(c=2.0)
    assert abs(radius_moments(model, 100, 0.5) - MOMENT_VALUE) < 1e-15
    assert abs(radius_moments(model, 100, 0.5) - moment_oracle(2.0, 100, 0.5)) < 1e-15
    # Quadrupling the sample size halves the radius exactly.
    r1 = radius_moments(model, 25, 0.3)
    r4 = radius_moments(model, 100, 0.3)
    assert abs(r4 - 0.5 * r1) < 1e-15
    # At eta = c/e the log term is exactly 1.
    assert abs(radius_moments(model, 64, 2.0 / math.e) - 1.0 / 8.0) < 1e-12
    with pytest.raises(ValueError):
        MomentTailModel(c=1.0)
    with pytest.raises(ValueError):
        radius_moments(model, 100, 0.0)
    with pytest.raises(ValueError):
        radius_moments(model, 0, 0.5)


def test_radii_strictly_decreasing_in_sample_size_and_eta():
    model = TailModel(alpha=3.0, A=1.0, m=4)
    mmodel = MomentTailModel()
    ns = [1, 2, 5, 10, 100, 10_000]
    r_emp = [radius_empirical(model, n, 0.1, 1.0) for n in ns]
    r_mom = [radius_moments(mmodel, n, 0.1) for n in ns]
    assert all(a > b for a, b in zip(r_emp, r_emp[1:]))
    assert all(a > b for a, b in zip(r_mom, r_mom[1:]))
    etas = [0.01, 0.05, 0.2, 0.5, 0.9]
    r_emp = [radius_empirical(model, 50, e, 1.0) for e in etas]
    r_mom = [radius_moments(mmodel, 50, e) for e in etas]
    assert all(a > b for a, b in zip(r_emp, r_emp[1:]))
    assert all(a > b for a, b in zip(r_mom, r_mom[1:]))


def test_large_sample_decay_rate():
    # On a log-log plot over N in [1e3, 1e6] the slope equals -min(p/m, 1/2).
    for p, m in [(1.0, 4), (3.0, 4), (1.0, 1)]:
        model = TailModel(alpha=9.0, A=1.0, m=m)
        r_lo = radius_empirical(model, 10**3, 0.1, p)
        r_hi = radius_empirical(model, 10**6, 0.1, p)
        slope = (math.log(r_hi) - math.log(r_lo)) / (math.log(10**6) - math.log(10**3))
        want = -min(p / m, 0.5)
        assert abs(slope - want) <= 0.02 * abs(want)


def test_eta_schedule_drives_radius_to_zero():
    assert abs(eta_schedule(1) - math.exp(-1.0)) < 1e-15
    assert abs(eta_schedule(100) - math.exp(-10.0)) < 1e-15
    model = TailModel(alpha=3.0, A=1.0, m=4)
    rs = [radius_empirical(model, n, eta_schedule(n), 1.0) for n in (10, 10**3, 10**4)]
    assert rs[0] > rs[1] > rs[2]
    assert rs[2] < 0.5 * rs[0]


def test_fold_assignments_deterministic_and_balanced():
    a = fold_assignments(500, 5, seed=7)
    b = fold_assignments(500, 5, seed=7)
    c = fold_assignments(500, 5, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 5
    counts = np.bincount(a, minlength=5)
    assert counts.min() > 60


_MASK = (1 << 64) - 1


def _splitmix64_reference(z):
    z = (z + 0x9E3779B97F4B7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def fold_assignments_reference(n, folds, seed=0):
    """Per-index hashing on Python integers and a rank-by-rank deal."""
    seed = seed & _MASK
    keys = [_splitmix64_reference(seed ^ _splitmix64_reference(i + 1)) for i in range(n)]
    assign = np.empty(n, dtype=int)
    for rank, i in enumerate(np.argsort(keys, kind="stable")):
        assign[i] = rank % folds
    return assign


def test_fold_assignments_match_the_per_index_reference():
    for n in (0, 1, 2, 7, 40, 80, 500):
        for folds in (2, 3, 5, 10):
            for seed in (0, 7, -1, 2**63 + 5, 123456789):
                got = fold_assignments(n, folds, seed)
                ref = fold_assignments_reference(n, folds, seed)
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref), (n, folds, seed)


def test_cv_radius_degenerate_grid():
    rows = np.arange(12.0).reshape(6, 2)
    picked = cv_radius(lambda tr, e: e, lambda mdl, te: 1.0, rows, [0.1], folds=2)
    assert picked == 0.1


def test_cv_radius_constant_scores_pick_smallest():
    rows = np.arange(20.0).reshape(10, 2)
    picked = cv_radius(lambda tr, e: e, lambda mdl, te: 1.0, rows, [0.5, 0.05, 0.2], folds=2)
    assert picked == 0.05


def test_cv_radius_trains_on_complement():
    rows = np.arange(30.0).reshape(15, 2)
    seen = []

    def train(tr, eps):
        seen.append(tr.shape[0])
        return eps

    cv_radius(train, lambda mdl, te: 0.0, rows, [0.1], folds=3, seed=4)
    counts = np.bincount(fold_assignments(15, 3, seed=4), minlength=3)
    assert seen == [15 - int(c) for c in counts]


def test_cv_radius_prefers_trained_radius():
    # eval returns |eps - 0.3|, so 0.3 must win regardless of fold layout.
    rows = np.arange(16.0).reshape(8, 2)
    picked = cv_radius(
        lambda tr, e: e, lambda e, te: abs(e - 0.3), rows, [0.0, 0.1, 0.3, 0.9], folds=2
    )
    assert picked == 0.3


def test_cv_radius_rejections():
    rows = np.arange(8.0).reshape(4, 2)
    with pytest.raises(InsufficientData):
        cv_radius(lambda tr, e: e, lambda m, te: 0.0, np.zeros((2, 1)), [0.1], folds=5)
    with pytest.raises(ValueError):
        cv_radius(lambda tr, e: e, lambda m, te: 0.0, rows, [], folds=2)
    with pytest.raises(ValueError):
        cv_radius(lambda tr, e: e, lambda m, te: 0.0, rows, [0.1], folds=1)
    # every grid entry is a radius: a negative, infinite or NaN one is refused,
    # not handed to train_fn
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps_grid"):
            cv_radius(lambda tr, e: e, lambda m, te: m, rows, [bad, 0.1], folds=2)


def _shrunk_slope(rows, eps):
    """1-D robust regression oracle: minimize sqrt(MSE) + eps |w| over w."""
    x, y = rows[:, 0], rows[:, 1]

    def objective(w):
        return math.sqrt(np.mean((y - w * x) ** 2)) + eps * abs(w)

    res = minimize_scalar(objective, bounds=(-5.0, 5.0), method="bounded")
    return float(res.x)


def test_cv_radius_synthetic_regression_prefers_positive_radius():
    # Weak signal, heavy noise, 12 samples: shrinkage should beat plain
    # least squares out of sample in most repetitions.
    rng = np.random.default_rng(20260825)
    grid = [0.0, 0.1, 0.25, 0.5]
    picks = []
    for rep in range(50):
        x = rng.normal(1.0, 1.0, size=12)
        y = 0.3 * x + rng.normal(0.0, 1.5, size=12)
        rows = np.column_stack([x, y])

        def evaluate(w, te):
            return float(np.mean((te[:, 1] - w * te[:, 0]) ** 2))

        picks.append(cv_radius(_shrunk_slope, evaluate, rows, grid, folds=3, seed=rep))
    picks = np.array(picks)
    assert np.mean(picks > 0.0) >= 0.6
    assert picks.mean() > 0.0


def test_cv_radius_deterministic_given_seed():
    rng = np.random.default_rng(3)
    rows = np.column_stack([rng.normal(size=10), rng.normal(size=10)])

    def evaluate(w, te):
        return float(np.mean((te[:, 1] - w * te[:, 0]) ** 2))

    first = cv_radius(_shrunk_slope, evaluate, rows, [0.0, 0.2, 0.4], folds=3, seed=11)
    second = cv_radius(_shrunk_slope, evaluate, rows, [0.4, 0.0, 0.2], folds=3, seed=11)
    assert first == second


def test_coverage_of_empirical_radius():
    # Known generator N(0.5, 1), hinge-type loss max(0, 1 - xi).  The worst
    # case risk of a ball calibrated at level eta should dominate the true
    # risk in at least a 1 - eta fraction of resampled datasets (with a
    # small Monte-Carlo slack).
    mu, sd, n, eta = 0.5, 1.0, 50, 0.2
    truth = hinge_true_risk(mu, sd)
    model = TailModel(alpha=2.0, A=2.0, m=1)
    eps = radius_empirical(model, n, eta, 1.0)
    loss = PiecewiseAffineLoss([(0.0, 0.0), (-1.0, 1.0)])
    ball = BallSpec(eps, 1.0)
    rng = np.random.default_rng(42)
    hits = 0
    for _ in range(200):
        xi = rng.normal(mu, sd, size=n)
        wc = wc_risk_pwa(loss, DiscreteDistribution(xi.reshape(-1, 1)), ball)
        hits += wc >= truth
    assert hits / 200 >= 1.0 - eta - 0.05
