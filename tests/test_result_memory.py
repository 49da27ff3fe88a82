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


def _retained_array_data(call):
    """The result of call() and the bytes of numpy array data it leaves allocated.

    Array data has its own tracemalloc domain, apart from the interpreter's
    free lists and numpy's shape cache, so this count has no slack.
    """
    only_arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_arrays)
        result = call()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(only_arrays)
    finally:
        tracemalloc.stop()
    return result, sum(diff.size_diff for diff in after.compare_to(before, "filename"))


def test_fw_solve_keeps_the_gaps_and_one_iterate():
    # at m = 40 an iterate takes 12.8 KB, so a second one kept would break the bound
    m = 40
    rng = np.random.default_rng(7)
    B = rng.normal(size=(m, m))
    nominal = JointMoments(1, m - 1, np.zeros(m), B @ B.T / m + 0.5 * np.eye(m))
    res, data = _retained_array_data(lambda: fw_solve(nominal, 0.3, iters=1000))
    assert res.S.shape == (m, m)
    assert data <= res.S.nbytes + res.estimator.gain.nbytes + res.estimator.offset.nbytes, data
    # one float per state, no iterate kept per step
    gaps = [state.gap for state in fw_iterates(nominal, 0.3, iters=1000)]
    assert len(res.gaps) == len(gaps) < 1000
    assert type(res.gaps) is list and res.gaps == gaps


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
