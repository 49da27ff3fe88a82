"""Each checked covariance is decomposed once, by the type that checked it.

``MomentPair`` and ``JointMoments`` keep the decomposition their PSD check
computes as ``spectrum``, and ``QuadraticLoss`` the decomposition of its Q;
these tests count the eigendecompositions numpy is asked for once such an
object exists.
"""

import numpy as np
import pytest

from wdro.empirical_risk import QuadraticLoss
from wdro.mmse import JointMoments, fw_solve
from wdro.moment_risk import gelbrich_risk_quadratic
from wdro.numerics import psd_eig
from wdro.shrinkage import sample_moments, shrinkage_from_samples, wasserstein_shrinkage
from wdro.transport import MomentPair, gelbrich_distance


@pytest.fixture
def decomposed(monkeypatch):
    """The matrices passed to np.linalg.eigh and eigvalsh, by function name."""
    calls = {"eigh": [], "eigvalsh": []}
    for name, seen in calls.items():
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _seen=seen, **kwargs):
            _seen.append(np.array(a, dtype=float))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _pair(seed, m, rank=None):
    rng = np.random.RandomState(seed)
    B = rng.randn(m, m if rank is None else rank)
    return MomentPair(rng.randn(m), B @ B.T)


def test_spectrum_is_the_decomposition_sym_eig_computes():
    for seed, rank in ((0, None), (1, 2), (2, 4)):
        pair = _pair(seed, 4, rank)
        _, fresh = psd_eig(pair.sigma)
        assert np.array_equal(pair.spectrum.values, fresh.values)
        assert np.array_equal(pair.spectrum.vectors, fresh.vectors)
    joint = JointMoments(1, 3, np.zeros(4), pair.sigma)
    assert np.array_equal(joint.spectrum.values, pair.spectrum.values)
    assert np.array_equal(joint.spectrum.vectors, pair.spectrum.vectors)


def test_shrinkage_and_gelbrich_distance_decompose_nothing(decomposed):
    a, b = _pair(3, 5), _pair(4, 5, rank=3)
    decomposed["eigh"].clear()
    decomposed["eigvalsh"].clear()
    wasserstein_shrinkage(a, 0.3)
    wasserstein_shrinkage(b, 0.3)
    gelbrich_distance(a, b)
    assert decomposed == {"eigh": [], "eigvalsh": []}


def test_one_shrinkage_fit_decomposes_one_covariance(decomposed):
    # sample_moments checks the samples and decomposes their covariance once;
    # the shrinkage reads that spectrum
    rng = np.random.default_rng(4)
    for n, m in ((40, 5), (7, 12)):  # full rank, and fewer samples than dimensions
        x = rng.normal(size=(n, m))
        for fit in (lambda: shrinkage_from_samples(x, 0.3), lambda: wasserstein_shrinkage(sample_moments(x), 0.3)):
            decomposed["eigh"].clear()
            decomposed["eigvalsh"].clear()
            fit()
            assert [a.shape for a in decomposed["eigh"]] == [(m, m)]
            assert decomposed["eigvalsh"] == []


def test_gelbrich_risk_decomposes_the_loss_not_the_center(decomposed):
    Q = np.diag([1.0, 2.0, -0.5])
    loss = QuadraticLoss(Q, np.array([0.5, 0.0, -1.0]))
    (built,) = decomposed["eigh"]
    assert np.array_equal(built, Q)
    for rank in (None, 2):
        center = _pair(5, 3, rank)
        decomposed["eigh"].clear()
        decomposed["eigvalsh"].clear()
        res = gelbrich_risk_quadratic(loss, center, 0.4)
        # only the extremal pair's own check, when it is built
        (extremal,) = decomposed["eigh"]
        assert np.array_equal(extremal, res.extremal.sigma)
        assert decomposed["eigvalsh"] == []


def test_frank_wolfe_decomposes_one_gradient_per_iterate(decomposed):
    met = []
    for rank in (None, 3):
        rng = np.random.RandomState(6)
        B = rng.randn(5, 5 if rank is None else rank)
        nominal = JointMoments(2, 3, rng.randn(5), B @ B.T)
        decomposed["eigh"].clear()
        decomposed["eigvalsh"].clear()
        res = fw_solve(nominal, 0.3, iters=40)
        # per iterate one eigh of the observation block S_yy, which gives the
        # objective, the gain and the whitening, and one of the gradient's
        # mx x mx factor I + GG'; per step one of the whitened E_yy for the
        # line search; past a cap one more S_yy for the last gain
        iterates = len(res.gaps)
        steps = iterates - res.target_met
        assert decomposed["eigvalsh"] == []
        assert len(decomposed["eigh"]) == 2 * iterates + steps + (not res.target_met)
        assert all(a.shape in ((2, 2), (3, 3)) for a in decomposed["eigh"])
        small = [a for a in decomposed["eigh"] if a.shape == (2, 2)]
        assert len(small) == iterates
        assert all(np.linalg.eigvalsh(k).min() >= 1.0 - 1e-12 for k in small)  # I + GG' >= I
        met.append(res.target_met)
    assert met == [True, False]
