"""Entry-point input checks and the numpy-only runtime."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wdro.convex_analysis import NormSpec, SetSpec
from wdro.empirical_risk import (
    BallSpec,
    PiecewiseAffineLoss,
    QuadraticLoss,
    extremal_pwa,
    extremal_quadratic,
    wc_risk_pwa,
    wc_risk_quadratic,
)
from wdro.errors import ToolkitError
from wdro.learn import UnivariateLoss, dro_train_classifier, dro_train_regressor
from wdro.mmse import JointMoments, fw_direction, fw_solve
from wdro.moment_risk import GelbrichBall, gelbrich_risk_quadratic
from wdro.shrinkage import wasserstein_shrinkage
from wdro.transport import DiscreteDistribution, MomentPair

NAN = math.nan
SAMPLES = DiscreteDistribution(np.array([[0.0], [1.0]]))
QUAD = QuadraticLoss([[1.0]], [0.0])
X, Y = [[1.0], [-1.0]], [1.0, -1.0]


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: BallSpec(eps=NAN, p=1.0), "eps"),
        (lambda: GelbrichBall(MomentPair([0.0], [[1.0]]), NAN), "eps"),
        (lambda: wc_risk_quadratic(QUAD, SAMPLES, NAN), "eps"),
        (lambda: extremal_quadratic(QUAD, SAMPLES, NAN), "eps"),
        (lambda: fw_solve(JointMoments(1, 1, [0.0, 0.0], np.eye(2)), NAN), "eps"),
        (lambda: dro_train_classifier(X, Y, UnivariateLoss("hinge"), NAN), "eps"),
        (lambda: dro_train_regressor(X, Y, UnivariateLoss("pinball", 0.5), NAN, p=1), "eps"),
        (lambda: PiecewiseAffineLoss([([NAN], 0.0)]), "pieces"),
        (lambda: PiecewiseAffineLoss([([1.0], NAN)]), "pieces"),
    ],
    ids=[
        "BallSpec",
        "GelbrichBall",
        "wc_risk_quadratic",
        "extremal_quadratic",
        "fw_solve",
        "dro_train_classifier",
        "dro_train_regressor",
        "pwa_slope",
        "pwa_intercept",
    ],
)
def test_nan_input_is_rejected_at_the_entry_point(call, name):
    with pytest.raises(ValueError, match=name):
        call()


PWA = PiecewiseAffineLoss([([1.0], 0.0), ([-1.0], 0.5)])
BOX = SetSpec.polyhedron([[1.0], [-1.0]], [2.0, 2.0])
CENTER = MomentPair([0.0], [[1.0]])
JOINT = JointMoments(1, 1, [0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]])

# every entry that takes a radius: (the call at radius r, returning what it
# answers; the parameter's name; whether the radius must be positive)
RADIUS_ENTRIES = {
    "wc_risk_pwa": (lambda r: wc_risk_pwa(PWA, SAMPLES, BallSpec(r, 1.0)), "eps", False),
    "extremal_pwa": (
        lambda r: extremal_pwa(PWA, SAMPLES, BallSpec(r, 1.0, support=BOX)).certified_value, "eps", False),
    "GelbrichBall": (lambda r: GelbrichBall(CENTER, r).eps, "eps", False),
    "SetSpec.ball": (lambda r: SetSpec.ball(NormSpec.p_norm(2), r, 1).radius, "radius", False),
    "wc_risk_quadratic": (lambda r: wc_risk_quadratic(QUAD, SAMPLES, r), "eps", False),
    "extremal_quadratic": (
        lambda r: extremal_quadratic(QuadraticLoss([[-1.0]], [0.0]), SAMPLES, r).certified_value, "eps", False),
    "gelbrich_risk_quadratic": (lambda r: gelbrich_risk_quadratic(QUAD, CENTER, r).value, "eps", True),
    "wasserstein_shrinkage": (
        lambda r: wasserstein_shrinkage(MomentPair([0.0, 0.0], [[2.0, 0.3], [0.3, 1.0]]), r).precision, "eps", True),
    "fw_direction": (lambda r: fw_direction(np.eye(2), np.eye(2), r).D, "eps", True),
    "fw_solve": (lambda r: fw_solve(JOINT, r).S, "eps", False),
    "dro_train_classifier": (
        lambda r: dro_train_classifier(X, Y, UnivariateLoss("hinge"), r).weights, "eps", False),
    "dro_train_regressor": (
        lambda r: dro_train_regressor(X, Y, UnivariateLoss("pinball", 0.5), r, p=1).weights, "eps", False),
}


@pytest.mark.parametrize("entry", RADIUS_ENTRIES)
def test_a_radius_must_be_finite_and_nonnegative(entry):
    """NaN, +-inf and negative radii raise ValueError naming the parameter,
    and so does 0 where the radius must be positive; where 0 is a radius,
    -0.0 answers as 0.0 does."""
    call, name, positive = RADIUS_ENTRIES[entry]
    for r in [NAN, math.inf, -math.inf, -1.0] + [0.0] * positive:
        with pytest.raises(ValueError, match=name):
            call(r)
    if not positive:
        assert np.array_equal(call(-0.0), call(0.0))


# entries whose errors at the extreme radii name the radius
NAMED_AT_EXTREMES = ("wasserstein_shrinkage", "fw_solve")


@pytest.mark.parametrize("entry", RADIUS_ENTRIES)
def test_no_radius_is_priced_as_nan(entry):
    """At the smallest and largest radii an entry answers a number or raises;
    none of them is a NaN answer.  The entries in NAMED_AT_EXTREMES raise a
    ToolkitError or ValueError that names eps; the others may still raise
    misleading errors (a failed bracket, an overflow)."""
    call, name, positive = RADIUS_ENTRIES[entry]
    named = entry in NAMED_AT_EXTREMES
    for r in [1e-300, 1e300] + [0.0] * (not positive):
        try:
            with np.errstate(all="ignore"):
                answer = call(r)
        except (ToolkitError, ValueError) as exc:
            assert not named or name in str(exc), (entry, r, exc)
            continue
        except ArithmeticError:
            assert not named, (entry, r)
            continue
        assert not np.isnan(answer).any(), (entry, r, answer)


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, wdro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
