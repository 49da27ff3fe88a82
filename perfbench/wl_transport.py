"""Transport ops of the ``library`` workload: exact Wasserstein distances.

One pass solves 72 ops over a smooth ladder of 24 sizes N x M between 6 and
40, three ops per size, cycling through atom dimension m in {1, 2, 5}, order
p in {1, 2} and ground norm in {2-norm, 1-norm}, so that every combination
covers the whole ladder.  A ladder without gaps keeps the latency quantiles
away from jumps between size classes.  The seed draws the atoms, the
non-uniform weights and a per-op atom scale 10^U(SCALE).  The dense simplex does most of the work,
pairwise cost assembly most of the rest.

Checks, in numpy and independent of the solver: costs are recomputed, the
plan must be a coupling of the two weight vectors, its cost must equal the
reported distance^p, the potentials must satisfy psi_j - phi_i <= C_ij and
close the duality gap, all within ``REL_TOL`` of max C.  Feasible potentials
with a zero gap certify optimality.  For m = 1 the cost must also equal the
quantile (monotone) coupling, which is optimal on the line.

The simplex uses absolute tolerances, so answers degrade when costs are far
below 1.  Timed ops draw scales where every answer at the base commit passes;
``make_probe_ops`` draws scales below that range.  Its failures are reported
as ``transport.scale_probe_failed`` and never enter the timed loop.
"""

from __future__ import annotations

import numpy as np

import wdro.convex_analysis as convex_analysis
import wdro.transport as transport
from harness import Op, digest, spread

N_LADDER = tuple(int(round(6.0 * (40.0 / 6.0) ** (i / 23.0))) for i in range(24))
SIZES = tuple((n, max(6, min(40, int(round(n * (1.2 if i % 2 else 0.85)))))) for i, n in enumerate(N_LADDER))
COMBOS = tuple((m, p, g) for m in (1, 2, 5) for p in (1.0, 2.0) for g in (2.0, 1.0))  # (dim, order, ground)
OPS_PER_SIZE = 3
SCALE = (-1.0, 3.0)  # log10 of the atom scale of timed ops
PROBE_SCALE = (-6.0, -1.0)  # log10 of the atom scale of the known-defect probe
REL_TOL = 1e-8


def _instance(rng, N, M, m, p, ground, log_scale) -> Op:
    scale = 10.0 ** rng.uniform(*log_scale)
    X = rng.normal(size=(N, m)) * scale
    Y = (rng.normal(size=(M, m)) + 0.5) * scale
    a = rng.uniform(0.2, 1.0, N)
    b = rng.uniform(0.2, 1.0, M)
    label = f"N{N} M{M} m{m} p{p:g} ground{ground:g} scale{scale:.1e}"
    return Op("wasserstein_p", label, dict(X=X, Y=Y, a=a / a.sum(), b=b / b.sum(), p=p, ground=ground))


def _ladder(rng, sizes, log_scale) -> list[Op]:
    ops = []
    for i, (N, M) in enumerate(sizes):
        for k in range(OPS_PER_SIZE):
            m, p, g = COMBOS[(OPS_PER_SIZE * i + k) % len(COMBOS)]
            ops.append(_instance(rng, N, M, m, p, g, log_scale))
    return ops


def make_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    return spread(_ladder(rng, ((3, 4), (5, 3), (4, 4), (3, 3)) if tiny else SIZES, SCALE))


def make_probe_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    return _ladder(rng, SIZES[:8], PROBE_SCALE)


def run(op: Op, tracer=None):
    x = op.inputs
    return transport.wasserstein_p(
        transport.DiscreteDistribution(x["X"], x["a"]),
        transport.DiscreteDistribution(x["Y"], x["b"]),
        x["p"],
        convex_analysis.NormSpec.p_norm(x["ground"]),
    )


def ground_costs(X, Y, p, ground) -> np.ndarray:
    D = np.abs(X[:, None, :] - Y[None, :, :])
    dist = D.sum(axis=-1) if ground == 1.0 else np.sqrt((D * D).sum(axis=-1))
    return dist**p


def quantile_cost(x, a, y, b, p) -> float:
    """Cost of the monotone coupling of two distributions on the line."""
    ix, iy = np.argsort(x, kind="stable"), np.argsort(y, kind="stable")
    ca, cb = np.cumsum(a[ix]), np.cumsum(b[iy])
    t = np.unique(np.concatenate([[0.0], ca[:-1], cb[:-1], [1.0]]))
    mid = 0.5 * (t[:-1] + t[1:])
    i = np.minimum(np.searchsorted(ca, mid, side="right"), x.size - 1)
    j = np.minimum(np.searchsorted(cb, mid, side="right"), y.size - 1)
    return float(np.sum(np.diff(t) * np.abs(x[ix][i] - y[iy][j]) ** p))


def check(op: Op, answer) -> str | None:
    x = op.inputs
    a, b, p = x["a"], x["b"], x["p"]
    C = ground_costs(x["X"], x["Y"], p, x["ground"])
    tol = REL_TOL * float(C.max())
    plan = np.asarray(answer.plan.matrix)
    if plan.shape != C.shape:
        return f"plan has shape {plan.shape}, expected {C.shape}"
    if plan.min() < -1e-12:
        return f"negative plan entry {plan.min():.3e}"
    marg = max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max())
    if marg > 1e-9:
        return f"plan marginals off by {marg:.3e}"
    cost = float(np.sum(C * plan))
    if abs(answer.distance**p - cost) > tol:
        return f"distance^p {answer.distance**p!r} differs from the plan cost {cost!r}"
    phi, psi = np.asarray(answer.duals.phi), np.asarray(answer.duals.psi)
    viol = float(np.max(psi[None, :] - phi[:, None] - C))
    if viol > tol:
        return f"potentials violate psi_j - phi_i <= C_ij by {viol / C.max():.2e} of max C"
    gap = float(psi @ b - phi @ a) - cost
    if abs(gap) > tol:
        return f"duality gap {gap / C.max():.2e} of max C"
    if x["X"].shape[1] == 1:
        ref = quantile_cost(x["X"][:, 0], a, x["Y"][:, 0], b, p)
        if abs(cost - ref) > tol:
            return f"cost {cost!r} differs from the quantile coupling {ref!r}"
    return None


def fingerprint(op: Op, answer) -> bytes:
    return digest(answer.distance, answer.plan.matrix, answer.duals.phi, answer.duals.psi)


def corrupt(op: Op, answer):
    """Shift psi by +1: the potentials turn infeasible."""
    duals = transport.DualPotentials(answer.duals.phi, answer.duals.psi + 1.0)
    return transport.TransportResult(answer.distance, answer.plan, duals)
