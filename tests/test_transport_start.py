"""The first basis of the transportation simplex (``transport._first_basis``)
and the pivots it saves."""

import itertools

import numpy as np
import pytest

import wdro.transport as transport
from wdro.transport import DiscreteDistribution, wasserstein_p

EPS = float(np.finfo(float).eps)


def costs(X, Y):
    return np.linalg.norm(X[:, None, :] - Y[None, :, :], axis=-1)


def assert_spanning_tree(cells, a, b):
    """N + M - 1 cells of nonnegative flow, none closing a cycle of the
    row/column graph (so they span it), whose sums meet the weights within
    rounding."""
    N, M = a.size, b.size
    assert len(cells) == N + M - 1
    group = list(range(N + M))

    def find(n):
        while group[n] != n:
            n = group[n]
        return n

    rows, cols = np.zeros(N), np.zeros(M)
    for i, j, t in cells:
        gi, gj = find(i), find(N + j)
        assert gi != gj, f"cell {(i, j)} closes a cycle"
        group[gi] = gj
        assert t >= 0.0
        rows[i] += t
        cols[j] += t
    slack = 4 * (N + M) * EPS + abs(float(a.sum() - b.sum()))
    assert np.abs(rows - a).max() <= slack
    assert np.abs(cols - b).max() <= slack


def northwest(a, b):
    """The northwest-corner cells: each exhausts its row (on a tie too) or
    its column, and the walk moves one step."""
    N, M = a.size, b.size
    i = j = 0
    ra, rb = a[0], b[0]
    cells = []
    while True:
        t = min(ra, rb)
        cells.append((i, j, t))
        ra -= t
        rb -= t
        if j == M - 1 or (i < N - 1 and ra <= rb):
            if i == N - 1:
                return cells
            i += 1
            ra = a[i]
        else:
            j += 1
            rb = b[j]


def uniform(n):
    return np.full(n, 1.0 / n)


def lattice(rng, n, k):
    return rng.integers(0, k, size=(n, 2)).astype(float)


def instances():
    rng = np.random.default_rng(11)
    X, Y = rng.normal(size=(7, 2)), rng.normal(size=(5, 2))
    w7 = rng.uniform(0.2, 1.0, 7)
    w7 /= w7.sum()
    w5 = rng.uniform(0.2, 1.0, 5)
    w5 /= w5.sum()
    yield "ties", np.ones((6, 4)), uniform(6), uniform(4)
    yield "duplicate atoms", costs(np.vstack([X[:3], X[:3]]), np.vstack([Y[:2]] * 3)), uniform(6), uniform(6)
    a, b = w7.copy(), w5.copy()
    a[[0, 3]], b[[1, 4]] = 0.0, 0.0
    a, b = a / a.sum(), b / b.sum()
    yield "zero weights", costs(X, Y), a, b
    yield "N = 1", costs(X[:1], Y), np.array([1.0]), w5
    yield "M = 1", costs(X, Y[:1]), w7, np.array([1.0])
    yield "N = M = 1", costs(X[:1], Y[:1]), np.array([1.0]), np.array([1.0])
    for n, k in [(20, 3), (30, 5), (12, 2)]:
        yield f"lattice {n} on {k} x {k}", costs(lattice(rng, n, k), lattice(rng, n + 3, k)), uniform(n), uniform(n + 3)


@pytest.mark.parametrize("ranked", [True, False])
@pytest.mark.parametrize("case", list(instances()), ids=lambda case: case[0])
def test_first_basis_is_a_spanning_tree_meeting_the_marginals(case, ranked):
    _, C, a, b = case
    assert_spanning_tree(transport._first_basis(C, a, b, ranked), a, b)


@pytest.mark.parametrize("case", list(instances()), ids=lambda case: case[0])
def test_first_basis_unranked_is_the_northwest_corner(case):
    _, C, a, b = case
    assert transport._first_basis(C, a, b, False) == northwest(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_on_the_line_the_start_is_the_northwest_corner_of_the_sorted_sets(monkeypatch, seed):
    rng = np.random.default_rng([seed, 3])
    x, y = rng.normal(size=17), rng.normal(size=11) + 0.4
    a, b = rng.uniform(0.2, 1.0, 17), rng.uniform(0.2, 1.0, 11)
    a, b = a / a.sum(), b / b.sum()
    starts = []
    first_basis = transport._first_basis

    def recording(*args):
        starts.append(first_basis(*args))
        return starts[-1]

    monkeypatch.setattr(transport, "_first_basis", recording)
    wasserstein_p(DiscreteDistribution(x, a), DiscreteDistribution(y, b), 2.0)
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    assert starts == [northwest(a[ix], b[iy])]


# Pivots on the instances below when the simplex started from the northwest
# corner of the sets sorted by their first coordinate, as it did before the
# greedy start.
NORTHWEST_PIVOTS = 1789


def test_greedy_start_takes_at_most_70_percent_of_the_northwest_pivots(monkeypatch):
    total = 0
    solve = transport._transport_simplex

    def counting(*args):
        nonlocal total
        out = solve(*args)
        total += out[3]
        return out

    monkeypatch.setattr(transport, "_transport_simplex", counting)
    rng = np.random.default_rng(2019)
    for m, p, k in itertools.product((2, 5), (1.0, 2.0), range(6)):
        N, M = rng.integers(8, 41, size=2)
        X, Y = rng.normal(size=(N, m)), rng.normal(size=(M, m)) + 0.5
        a, b = rng.uniform(0.2, 1.0, N), rng.uniform(0.2, 1.0, M)
        wasserstein_p(DiscreteDistribution(X, a / a.sum()), DiscreteDistribution(Y, b / b.sum()), p)
    assert total <= 0.7 * NORTHWEST_PIVOTS, total
