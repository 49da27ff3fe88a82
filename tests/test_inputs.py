"""Entry-point input checks and the numpy-only runtime."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wdro.empirical_risk import (
    BallSpec,
    PiecewiseAffineLoss,
    QuadraticLoss,
    extremal_quadratic,
    wc_risk_quadratic,
)
from wdro.learn import UnivariateLoss, dro_train_classifier, dro_train_regressor
from wdro.mmse import JointMoments, fw_solve
from wdro.moment_risk import GelbrichBall
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


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, wdro; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
