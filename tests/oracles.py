"""Independent oracles shared by the tests; scipy is a test-only dependency.

``highs_value`` solves the full transport LP, all N + M marginal rows, with
``scipy.optimize.linprog(method="highs")`` on a cost matrix the caller
computes on its own.
"""

import numpy as np
from scipy.optimize import linprog


def highs_value(C, a, b):
    """The optimal value of min <C, X> over couplings X of a and b."""
    N, M = C.shape
    A_eq = np.vstack([np.kron(np.eye(N), np.ones(M)), np.kron(np.ones(N), np.eye(M))])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)
