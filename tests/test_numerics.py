import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import wdro
from wdro.errors import NoBracket, NotPSD, NotSymmetric
from wdro.numerics import Tolerance, monotone_root, psd_eig, secular_root


def test_monotone_root_simple():
    # root of x^2 - 2 on [0, 2], to a few ulps
    x = monotone_root(lambda t: (t * t - 2.0, 2.0 * t), 0.0, 2.0)
    assert abs(x - np.sqrt(2.0)) <= 4e-16 * np.sqrt(2.0)


def test_monotone_root_no_bracket():
    with pytest.raises(NoBracket):
        monotone_root(lambda t: (1.0 + t * t, 2.0 * t), -1.0, 1.0)


@pytest.mark.parametrize("scale", [1e-10, 1e-6, 1.0, 1e8])
def test_monotone_root_is_scale_free(scale):
    # an absolute stop on |f| or on the bracket would end early at one end
    # of the sweep; the root must come out to a few ulps at every scale
    def f(t):
        v = np.tanh(t / scale - 3.0)
        return v, (1.0 - v * v) / scale

    x = monotone_root(f, 0.0, 10.0 * scale)
    assert abs(x - 3.0 * scale) <= 1e-14 * scale


def test_monotone_root_bisects_a_jump():
    # no zero and a useless slope: the bracket closes on the jump at 0.3
    x = monotone_root(lambda t: (1.0 if t >= 0.3 else -1.0, 0.0), 0.0, 1.0)
    assert abs(x - 0.3) <= 1e-15


def test_secular_root_puts_the_multiplier_on_the_ball():
    rng = np.random.RandomState(3)
    for scale in (1e-10, 1.0, 1e8):
        numer = rng.uniform(0.0, 2.0, 5) * scale**2
        poles = rng.randn(5)
        x = secular_root(numer, poles, 0.1 * scale)
        assert abs(np.sum(numer / (x - poles) ** 2) / (0.01 * scale**2) - 1.0) <= 1e-12


def test_secular_root_returns_the_left_end_when_the_constraint_is_slack():
    assert secular_root(np.array([0.0, 1.0]), np.array([2.0, -1.0]), 10.0) == 2.0


def test_sym_eig_reconstructs():
    rng = np.random.RandomState(3)
    for m in (1, 2, 5, 20, 50):
        B = rng.randn(m, m)
        A = B @ B.T
        _, dec = psd_eig(A)
        assert np.all(np.diff(dec.values) <= 1e-12)
        assert np.linalg.norm(dec.reconstruct() - A) <= 1e-9 * (1 + np.linalg.norm(A))
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(m)) <= 1e-10


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        psd_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_deterministic_signs():
    A = np.diag([3.0, 1.0])
    _, d1 = psd_eig(A)
    _, d2 = psd_eig(A)
    assert np.array_equal(d1.vectors, d2.vectors)
    assert d1.vectors[0, 0] > 0 and d1.vectors[1, 1] > 0


def psd_root(a):
    """The symmetric PSD square root R of A, R @ R ~= A and R = R.T exactly:
    eigenvalues in [-1e-9 max |w|, 0) count as zero, lower ones raise NotPSD."""
    return psd_eig(a)[1].sqrt()


def test_psd_sqrt_roundtrip():
    rng = np.random.RandomState(11)
    B = rng.randn(6, 6)
    A = B @ B.T
    R = psd_root(A)
    assert np.linalg.norm(R @ R - A) <= 1e-8 * (1 + np.linalg.norm(A))
    assert np.linalg.norm(R - R.T) == 0.0


def test_psd_sqrt_clips_tiny_negative():
    A = np.array([[1.0, 1.0], [1.0, 1.0]]) - 1e-12 * np.eye(2)
    R = psd_root(A)
    assert np.all(np.linalg.eigvalsh(R) >= -1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_root(np.diag([1.0, -0.5]))
    # the PSD floor is relative to the largest eigenvalue, at every scale
    for s in 10.0 ** np.arange(-14, 9):
        with pytest.raises(NotPSD):
            psd_root(s * np.diag([1.0, -0.5]))
        root = psd_root(s * np.diag([1.0, -1e-11]))
        assert np.abs(root - np.diag([np.sqrt(s), 0.0])).max() <= 1e-15 * np.sqrt(s)


def test_identity_sqrt_exact():
    assert np.allclose(psd_root(np.eye(3)), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("rel_tol", [-1e-10, float("inf"), float("nan")])
def test_tolerance_refuses_a_negative_or_nonfinite_rel_tol(rel_tol):
    # an infinite target is met by any gap, so it certifies nothing
    with pytest.raises(ValueError, match="rel_tol"):
        Tolerance(rel_tol)


def test_tolerance_is_one_relative_accuracy_read_by_seven_functions():
    # a tolerance only the solvers read: no absolute floor, no iteration cap,
    # and no tol parameter that merely passes it on
    assert [f.name for f in dataclasses.fields(Tolerance)] == ["rel_tol"]
    takes_tol = set()
    for info in pkgutil.iter_modules(wdro.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"wdro.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters:
                takes_tol.add(f"{info.name}.{name}")
    assert takes_tol == {
        "transport.wasserstein_p",
        "mmse.fw_iterates",
        "mmse.fw_solve",
        "learn.dro_train_classifier",
        "learn.dro_train_regressor",
        "moment_risk.gelbrich_hull_contains",
        "moment_risk.projection_check",
    }
