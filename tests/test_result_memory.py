"""Results hold what they report, not the work that produced them.

tracemalloc counts the bytes a call leaves allocated once its result is
the only thing kept.
"""

import gc
import tracemalloc

import numpy as np

from wdro.mmse import JointMoments, fw_iterates, fw_solve
from wdro.transport import DiscreteDistribution, wasserstein_p

FLOAT = np.dtype(float).itemsize
SLACK = 4096  # the result objects themselves


def _retained(call):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_fw_solve_keeps_the_gaps_and_one_iterate():
    nominal = JointMoments(1, 1, np.zeros(2), np.array([[2.0, 0.6], [0.6, 1.0]]))
    short, small = _retained(lambda: fw_solve(nominal, 0.3, iters=10))
    res, size = _retained(lambda: fw_solve(nominal, 0.3, iters=1000))
    assert len(short.gaps) == 10 and len(res.gaps) == 1000
    # a Python float and its list slot per gap (with the list's headroom);
    # no iterate is kept per step
    assert size - small <= 40 * (1000 - 10), (small, size)
    assert res.gaps == [state.gap for state in fw_iterates(nominal, 0.3, iters=1000)]


def test_transport_plan_keeps_its_positive_cells():
    N = M = 400
    rng = np.random.default_rng(3)
    Q = DiscreteDistribution(rng.normal(size=(N, 1)), rng.dirichlet(np.ones(N)))
    Qp = DiscreteDistribution(rng.normal(size=(M, 1)), rng.dirichlet(np.ones(M)))
    res, size = _retained(lambda: wasserstein_p(Q, Qp, 2.0))
    plan = res.plan
    assert plan.cells.size <= N + M - 1
    assert plan.cells.nbytes + plan.mass.nbytes <= 3 * (N + M) * FLOAT
    # the plan's cells and the two potentials, nothing of size N x M
    assert size <= (3 + 1) * (N + M) * FLOAT + SLACK, size
    dense = plan.matrix
    assert dense.shape == (N, M)
    assert np.count_nonzero(dense) == plan.cells.size
    assert plan.max_marginal_error() <= 1e-12
