"""Worst-case ops of the ``library`` workload: worst-case risks and extremals.

One pass has two parts.  The LP part calls ``wc_risk_pwa`` (type-1 and
type-inf balls) and ``extremal_pwa`` (type 1) on max-affine losses over a
box support with 1-norm and inf-norm ground costs, over a smooth ladder of
24 sizes N in 4..20 with 2-4 pieces in dimension 1-2: 24 ops, each one dense
LP with inequality rows, split free variables and phase-1 artificials.  The closed-form part calls the paths
that bypass the LP: type-2 whole-space ``wc_risk_pwa``, ``wc_risk_quadratic``,
``extremal_quadratic`` and ``gelbrich_risk_quadratic``: 36 ops.  The seed
draws samples, weights, radii, boxes and losses.

Checks, with scipy and numpy only:

* LP part: the value must equal an independent dual built for box supports,
  solved by HiGHS (type 1) or in closed form (type inf).  Attained
  extremals must reach the value, lie in the box and sit within the
  transport budget, measured by a HiGHS transport LP.
* type-2 pwa: exact minimization of the scalar dual over its breakpoints.
* quadratic: root of the scalar dual's derivative by Brent's method on a
  numpy eigendecomposition; the extremal must reach the value within its
  transport budget.
* Gelbrich: the extremal moments must lie in the ball (scipy matrix square
  roots), reach the value, and meet the dual bound at the returned multiplier.
"""

from __future__ import annotations

import math

import numpy as np

import wdro.convex_analysis as convex_analysis
import wdro.empirical_risk as empirical_risk
import wdro.moment_risk as moment_risk
import wdro.transport as transport
from harness import Op, digest, off, spread

LP_KINDS = ("wc_risk_pwa_1", "wc_risk_pwa_inf", "extremal_pwa")
LP_SIZES = tuple((4 + round(16 * i / 23), 2 + i % 3, 1 + i % 2) for i in range(24))  # (N, pieces, dim)
CLOSED_KINDS = ("wc_risk_pwa_2", "wc_risk_quadratic", "extremal_quadratic", "gelbrich_risk_quadratic")
CLOSED_SIZES = ((4, 2, 1), (6, 3, 2), (8, 4, 3), (10, 2, 2), (12, 3, 1), (14, 4, 3), (16, 2, 2), (18, 3, 3), (20, 4, 1))
EXACT_TOL = 1e-9  # against closed forms
LP_TOL = 1e-7  # against HiGHS, whose own feasibility tolerance is 1e-7


def _samples(rng, N, m):
    w = rng.uniform(0.2, 1.0, N)
    return rng.uniform(-1.0, 1.0, size=(N, m)), w / w.sum()


def _lp_op(rng, kind, ground, N, J, m) -> Op:
    atoms, w = _samples(rng, N, m)
    inputs = dict(
        atoms=atoms,
        w=w,
        A=rng.normal(size=(J, m)),
        b=rng.normal(size=J),
        lo=-1.0 - rng.uniform(0.1, 1.0, m),
        hi=1.0 + rng.uniform(0.1, 1.0, m),
        eps=float(rng.uniform(0.05, 0.8)),
        ground=ground,
        p=math.inf if kind == "wc_risk_pwa_inf" else 1.0,
    )
    return Op(kind, f"N{N} J{J} m{m} ground{ground:g}", inputs)


def _closed_op(rng, kind, N, J, m) -> Op:
    atoms, w = _samples(rng, N, m)
    inputs = dict(atoms=atoms, w=w, eps=float(rng.uniform(0.05, 0.8)))
    if kind == "wc_risk_pwa_2":
        inputs.update(A=rng.normal(size=(J, m)), b=rng.normal(size=J))
    else:
        B = rng.normal(size=(m, m))
        inputs.update(Q=0.5 * (B + B.T), q=rng.normal(size=m))
    if kind == "gelbrich_risk_quadratic":
        R = rng.normal(size=(m, m))
        inputs.update(mu=rng.normal(size=m), S=R @ R.T / m + 0.1 * np.eye(m))
    return Op(kind, f"N{N} J{J} m{m}", inputs)


def make_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    lp_sizes = LP_SIZES[:6] if tiny else LP_SIZES
    closed_sizes = ((3, 2, 2),) if tiny else CLOSED_SIZES
    ops = [_closed_op(rng, kind, *size) for size in closed_sizes for kind in CLOSED_KINDS]
    combos = [(kind, ground) for kind in LP_KINDS for ground in (1.0, math.inf)]
    ops += [_lp_op(rng, *combos[i % len(combos)], *size) for i, size in enumerate(lp_sizes)]
    return spread(ops)


def _pwa(x):
    return empirical_risk.PiecewiseAffineLoss(list(zip(x["A"], x["b"])))


def run(op: Op, tracer=None):
    x = op.inputs
    samples = transport.DiscreteDistribution(x["atoms"], x["w"])
    if op.kind == "wc_risk_pwa_2":
        return empirical_risk.wc_risk_pwa(_pwa(x), samples, empirical_risk.BallSpec(x["eps"], 2.0))
    if op.kind in LP_KINDS:
        m = x["atoms"].shape[1]
        box = convex_analysis.SetSpec.polyhedron(
            np.vstack([np.eye(m), -np.eye(m)]), np.concatenate([x["hi"], -x["lo"]])
        )
        ball = empirical_risk.BallSpec(
            x["eps"], x["p"], norm=convex_analysis.NormSpec.p_norm(x["ground"]), support=box
        )
        if op.kind == "extremal_pwa":
            return empirical_risk.extremal_pwa(_pwa(x), samples, ball)
        return empirical_risk.wc_risk_pwa(_pwa(x), samples, ball)
    loss = empirical_risk.QuadraticLoss(x["Q"], x["q"])
    if op.kind == "wc_risk_quadratic":
        return empirical_risk.wc_risk_quadratic(loss, samples, x["eps"])
    if op.kind == "extremal_quadratic":
        return empirical_risk.extremal_quadratic(loss, samples, x["eps"])
    return moment_risk.gelbrich_risk_quadratic(loss, transport.MomentPair(x["mu"], x["S"]), x["eps"])


# ---------------------------------------------------------------------------
# Independent oracles.


def _room(A, atoms, lo, hi):
    """room[i, j, k]: how far atom i can move along sign(A[j, k]) in coordinate k."""
    up = hi[None, :] - atoms
    down = atoms - lo[None, :]
    return np.where(A[None] > 0, up[:, None, :], down[:, None, :]) * (A[None] != 0)


def box_value(x) -> float:
    """Worst case of max_j a_j'xi + b_j over a type-1 or type-inf ball on a box."""
    from scipy.optimize import linprog

    A, atoms, w, eps = x["A"], x["atoms"], x["w"], x["eps"]
    N, m = atoms.shape
    J = A.shape[0]
    L = atoms @ A.T + x["b"]
    room = _room(A, atoms, x["lo"], x["hi"])
    absA = np.abs(A)
    if x["p"] == math.inf:
        # each sample moves by at most eps: best gain per piece, greedy per coordinate
        if x["ground"] == math.inf:
            gain = (absA[None] * np.minimum(room, eps)).sum(axis=-1)
        else:
            gain = np.zeros((N, J))
            for i in range(N):
                for j in range(J):
                    left = eps
                    for k in np.argsort(-absA[j], kind="stable"):
                        step = min(left, room[i, j, k])
                        gain[i, j] += absA[j, k] * step
                        left -= step
        return float(w @ (L + gain).max(axis=1))
    # type 1: min_g g*eps + sum_i w_i max_j [L_ij + max_d (a_j'd - g*||d||)]
    rows, rhs = [], []
    if x["ground"] == 1.0:
        # the inner max splits by coordinate: sum_k max(0, (|a_jk| - g) room_ijk)
        n_var = 1 + N + N * J * m
        for i in range(N):
            for j in range(J):
                u0 = 1 + N + (i * J + j) * m
                r = np.zeros(n_var)
                r[1 + i], r[u0 : u0 + m] = -1.0, 1.0
                rows.append(r)
                rhs.append(-L[i, j])
                for k in range(m):
                    r = np.zeros(n_var)
                    r[0], r[u0 + k] = -room[i, j, k], -1.0
                    rows.append(r)
                    rhs.append(-absA[j, k] * room[i, j, k])
        bounds = [(0, None)] + [(None, None)] * N + [(0, None)] * (N * J * m)
    else:
        # inf-norm moves of length t gain sum_k |a_jk| min(t, room_ijk), concave in t:
        # its max against -g*t sits at t = 0 or at one of the rooms
        n_var = 1 + N
        for i in range(N):
            for j in range(J):
                for t in np.concatenate([[0.0], room[i, j]]):
                    r = np.zeros(n_var)
                    r[0], r[1 + i] = -t, -1.0
                    rows.append(r)
                    rhs.append(-(L[i, j] + float(absA[j] @ np.minimum(t, room[i, j]))))
        bounds = [(0, None)] + [(None, None)] * N
    cost = np.concatenate([[eps], w, np.zeros(n_var - 1 - N)])
    res = linprog(cost, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def w1_distance(X, a, Y, b, ground) -> float:
    from scipy.optimize import linprog

    D = np.abs(X[:, None, :] - Y[None, :, :])
    C = D.sum(axis=-1) if ground == 1.0 else D.max(axis=-1)
    n, k = C.shape
    A_eq = np.zeros((n + k, n * k))
    for i in range(n):
        A_eq[i, i * k : (i + 1) * k] = 1.0
    for j in range(k):
        A_eq[n + j, j::k] = 1.0
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport oracle failed: {res.message}")
    return float(res.fun)


def p2_value(x) -> float:
    """inf_g g eps^2 + sum_i w_i max_j [L_ij + ||a_j||^2/(4g)], exactly.

    With t = 1/(4g) the sum is piecewise affine in t; on each piece the
    objective eps^2/(4t) + alpha + beta t has a closed-form minimizer.
    """
    L = x["atoms"] @ x["A"].T + x["b"]
    D = (x["A"] ** 2).sum(axis=1)
    w, eps = x["w"], x["eps"]
    breaks = [0.0]
    for j in range(D.size):
        for k in range(D.size):
            if D[k] != D[j]:
                t = (L[:, j] - L[:, k]) / (D[k] - D[j])
                breaks.extend(t[t > 0].tolist())
    edges = np.append(np.unique(breaks), math.inf)
    best = math.inf
    rows = np.arange(L.shape[0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        probe = lo + 1.0 if hi == math.inf else 0.5 * (lo + hi)
        active = np.argmax(L + D[None, :] * probe, axis=1)
        beta = float(w @ D[active])
        t = min(max(eps / (2.0 * math.sqrt(beta)), lo), hi) if beta > 0 else hi
        if 0.0 < t < math.inf:
            best = min(best, eps**2 / (4.0 * t) + float(w @ (L + D[None, :] * t).max(axis=1)))
    return best


def quad_value(x) -> float:
    """Type-2 worst case of xi'Q xi + 2 q'xi from the root of the dual's derivative."""
    from scipy.optimize import brentq

    Q, q, atoms, w, eps = x["Q"], x["q"], x["atoms"], x["w"], x["eps"]
    lam, V = np.linalg.eigh(Q)
    D = ((q[None, :] + atoms @ Q) @ V) ** 2
    nominal = float(w @ (np.einsum("ij,jk,ik->i", atoms, Q, atoms) + 2.0 * atoms @ q))
    floor = max(0.0, float(lam.max()))

    def slope(g):
        return eps**2 - float(w @ (D / (g - lam) ** 2).sum(axis=1))

    def value_at(g):
        return nominal + g * eps**2 + float(w @ (D / (g - lam)).sum(axis=1))

    if lam.max() < 0.0 and slope(0.0) >= 0.0:
        return value_at(0.0)  # the dual is increasing on its whole domain g >= 0
    hi = floor + 1.0
    while slope(hi) < 0.0:
        hi = floor + 2.0 * (hi - floor)
    lo = hi
    for _ in range(2000):
        if slope(lo) <= 0.0:
            break
        lo = floor + 0.5 * (lo - floor)
    else:
        raise RuntimeError("the dual's derivative keeps its sign above the eigenvalue floor")
    return value_at(brentq(slope, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500))


def gelbrich_dist2(mu1, S1, mu2, S2) -> float:
    from scipy.linalg import sqrtm

    r = np.real(sqrtm(S1))
    cross = np.real(sqrtm(r @ S2 @ r))
    return float(np.sum((mu1 - mu2) ** 2) + np.trace(S1 + S2 - 2.0 * cross))


def gelbrich_dual(x, g) -> float:
    """Dual bound, valid at every g with gI - Q positive definite:
    g(eps^2 - |mu|^2 - tr S) + g^2 tr[(gI - Q)^-1 S] + v'(gI - Q)^-1 v, v = q + g mu."""
    Q, q, mu, S, eps = x["Q"], x["q"], x["mu"], x["S"], x["eps"]
    M = g * np.eye(mu.size) - Q
    v = q + g * mu
    return float(
        g * (eps**2 - mu @ mu - np.trace(S))
        + g * g * np.trace(np.linalg.solve(M, S))
        + v @ np.linalg.solve(M, v)
    )


def check(op: Op, answer) -> str | None:
    x = op.inputs
    kind = op.kind
    if kind in ("wc_risk_pwa_1", "wc_risk_pwa_inf"):
        ref = box_value(x)
        return f"value {answer!r} differs from the box dual {ref!r}" if off(answer, ref, LP_TOL) else None
    if kind == "extremal_pwa":
        ref = box_value(x)
        value = answer.certified_value
        if off(value, ref, LP_TOL):
            return f"value {value!r} differs from the box dual {ref!r}"
        if answer.kind != "attained":
            return f"{answer.kind} extremal on a bounded support"
        Qd = answer.distribution
        risk = float(Qd.weights @ (Qd.atoms @ x["A"].T + x["b"]).max(axis=1))
        if off(risk, value, LP_TOL):
            return f"extremal risk {risk!r} differs from the value {value!r}"
        if np.any(Qd.atoms < x["lo"] - 1e-9) or np.any(Qd.atoms > x["hi"] + 1e-9):
            return "extremal atom outside the support box"
        budget = w1_distance(Qd.atoms, Qd.weights, x["atoms"], x["w"], x["ground"])
        if budget > x["eps"] * (1.0 + LP_TOL):
            return f"extremal transport cost {budget!r} exceeds eps {x['eps']!r}"
        return None
    if kind == "wc_risk_pwa_2":
        ref = p2_value(x)
        return f"value {answer!r} differs from the scalar dual {ref!r}" if off(answer, ref, EXACT_TOL) else None
    if kind == "wc_risk_quadratic":
        ref = quad_value(x)
        return f"value {answer!r} differs from the scalar dual {ref!r}" if off(answer, ref, EXACT_TOL) else None
    if kind == "extremal_quadratic":
        ref = quad_value(x)
        value = answer.certified_value
        if off(value, ref, EXACT_TOL):
            return f"value {value!r} differs from the scalar dual {ref!r}"
        if answer.kind == "attained":
            Z = answer.distribution.atoms
            wz = answer.distribution.weights
            risk = float(wz @ (np.einsum("ij,jk,ik->i", Z, x["Q"], Z) + 2.0 * Z @ x["q"]))
            if off(risk, value, 1e-7):
                return f"extremal risk {risk!r} differs from the value {value!r}"
            # atom i is sample i moved: that coupling bounds the type-2 cost
            cost = float(x["w"] @ ((Z - x["atoms"]) ** 2).sum(axis=1))
            if cost > x["eps"] ** 2 * (1.0 + 1e-7):
                return f"extremal transport cost {cost!r} exceeds eps^2"
        return None
    # gelbrich_risk_quadratic
    ext = answer.extremal
    primal = float(
        np.trace(x["Q"] @ ext.sigma) + ext.mu @ x["Q"] @ ext.mu + 2.0 * x["q"] @ ext.mu
    )
    if off(primal, answer.value, 1e-7):
        return f"extremal moments reach {primal!r}, not the value {answer.value!r}"
    d2 = gelbrich_dist2(x["mu"], x["S"], ext.mu, ext.sigma)
    if d2 > x["eps"] ** 2 * (1.0 + 1e-7):
        return f"extremal moments at squared distance {d2!r} > eps^2"
    if not answer.gamma_star > float(np.linalg.eigvalsh(x["Q"]).max()):
        return "multiplier does not dominate Q"
    bound = gelbrich_dual(x, answer.gamma_star)
    if off(bound, primal, 1e-7):
        return f"dual bound {bound!r} does not meet the primal value {primal!r}"
    return None


def fingerprint(op: Op, answer) -> bytes:
    if isinstance(answer, float):
        return digest(answer)
    if isinstance(answer, moment_risk.GelbrichRiskResult):
        return digest(answer.value, answer.gamma_star, answer.extremal.mu, answer.extremal.sigma)
    parts = [answer.kind, answer.certified_value]
    if answer.distribution is not None:
        parts += [answer.distribution.atoms, answer.distribution.weights]
    return digest(*parts)


def corrupt(op: Op, answer):
    """Perturb the reported value."""
    if isinstance(answer, float):
        return answer * (1.0 + 1e-3) + 1e-3
    if isinstance(answer, moment_risk.GelbrichRiskResult):
        return answer._replace(value=answer.value * (1.0 + 1e-3) + 1e-3)
    return empirical_risk.ExtremalReport(
        answer.kind, answer.certified_value * (1.0 + 1e-3) + 1e-3, answer.distribution, answer.family
    )
