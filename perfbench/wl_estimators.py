"""Estimator ops of the ``library`` workload: learning, MMSE, shrinkage, calibration.

One pass runs 35 ops, none of which solves an LP:

* 7 trainings, one per loss: ``dro_train_classifier`` with hinge,
  smooth_hinge and logloss, ``dro_train_regressor`` with squared (p=2),
  huber, pinball and eps_insensitive (p=1), N in 50..200, d in 2..8.  The
  piecewise-linear losses use a polyhedral input norm, the smooth ones the
  default Euclidean norm;
* 6 ``fw_solve`` runs with a fixed iteration count, m = mx + my in 4..10;
* 12 ``wasserstein_shrinkage`` calls, m in 5..60, half of them with fewer
  samples than dimensions (singular covariance);
* 10 ``cv_radius`` selections over shrinkage, scored by Gaussian likelihood.

The seed draws every data set and radius.

Checks, with scipy and numpy only:

* training: the objective is recomputed at the returned weights and must
  equal the reported value; it must be within ``SUBOPT_TOL`` of an
  independent optimum (HiGHS LP for piecewise-linear losses, BFGS for
  smooth ones);
* Frank-Wolfe: the returned covariance must be positive semidefinite, lie
  in the Gelbrich ball (scipy matrix square roots), be no worse than the
  nominal start, and yield the returned estimator;
* shrinkage: precision and multiplier must match the closed form solved by
  Brent's method, with the shrinkage equation residual at most 1e-10;
* cv_radius: the returned radius must be the grid point with the smallest
  cross-validated risk, recomputed with the closed-form shrinkage.
"""

from __future__ import annotations

import math

import numpy as np

import wdro.calibrate as calibrate
import wdro.convex_analysis as convex_analysis
import wdro.learn as learn
import wdro.mmse as mmse
import wdro.shrinkage as shrinkage
from harness import Op, digest, off, spread

# (loss, delta, N, d, input norm order); None keeps the default Euclidean norm
TRAININGS = (
    ("hinge", None, 100, 5, math.inf),
    ("smooth_hinge", None, 60, 8, None),
    ("logloss", None, 150, 3, None),
    ("squared", None, 200, 6, None),
    ("huber", 1.0, 80, 4, None),
    ("pinball", 0.3, 120, 2, 1.0),
    ("eps_insensitive", 0.2, 50, 7, math.inf),
)
CLASSIFICATION = ("hinge", "smooth_hinge", "logloss")
FW_SIZES = ((1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6))  # (mx, my)
FW_ITERS = 60
SHRINK_DIMS = (5, 10, 20, 30, 45, 60)
CV_SIZES = ((40, 3), (50, 4), (60, 5), (70, 6), (80, 3), (40, 6), (50, 5), (60, 4), (70, 3), (80, 5))
CV_GRID = (0.05, 0.1, 0.2, 0.4, 0.8)
CV_FOLDS = 5
SUBOPT_TOL = 1e-3  # relative: the subgradient solver stops near, not at, the optimum (measured up to 7e-5)
SHRINK_RESIDUAL = 1e-10


def _train_op(rng, loss, delta, N, d, norm_p) -> Op:
    X = rng.normal(size=(N, d))
    w_true = rng.normal(size=d)
    noise = rng.normal(size=N)
    if loss in CLASSIFICATION:
        y = np.where(X @ w_true + 0.5 * noise >= 0.0, 1.0, -1.0)
    else:
        y = X @ w_true + 0.3 * noise
    inputs = dict(X=X, y=y, loss=loss, delta=delta, eps=float(rng.uniform(0.05, 0.3)), norm_p=norm_p)
    return Op("train", f"{loss} N{N} d{d}", inputs)


def _fw_op(rng, mx, my) -> Op:
    m = mx + my
    R = rng.normal(size=(m, m))
    inputs = dict(
        mx=mx, my=my, mean=rng.normal(size=m), cov=R @ R.T / m + 0.5 * np.eye(m),
        eps=float(rng.uniform(0.1, 0.5)),
    )
    return Op("fw_solve", f"m{m}", inputs)


def _shrink_op(rng, m, n) -> Op:
    samples = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0, size=m)
    inputs = dict(moments=shrinkage.sample_moments(samples), eps=float(rng.uniform(0.1, 1.0)))
    return Op("wasserstein_shrinkage", f"m{m} n{n}", inputs)


def _cv_op(rng, n, m) -> Op:
    samples = rng.normal(size=(n, m)) * rng.uniform(0.5, 2.0, size=m)
    return Op("cv_radius", f"n{n} m{m}", dict(samples=samples, seed=int(rng.integers(2**32))))


def make_ops(seed: int, tiny: bool = False) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    if tiny:
        trainings = [(loss, delta, 12, 2, p) for loss, delta, _, _, p in TRAININGS]
        fw, dims, cv = FW_SIZES[:1], SHRINK_DIMS[:1], CV_SIZES[:1]
    else:
        trainings, fw, dims, cv = TRAININGS, FW_SIZES, SHRINK_DIMS, CV_SIZES
    ops = [_shrink_op(rng, m, n) for m in dims for n in (m // 2 + 1, 2 * m)]
    ops += [_cv_op(rng, n, m) for n, m in cv]
    ops += [_fw_op(rng, mx, my) for mx, my in fw]
    ops += [_train_op(rng, *t) for t in trainings]
    return spread(ops)


def _shrink_model(rows, eps):
    return shrinkage.wasserstein_shrinkage(shrinkage.sample_moments(rows), eps)


def gaussian_nll(mean, precision, rows) -> float:
    z = rows - mean
    _, logdet = np.linalg.slogdet(precision)
    return float(0.5 * np.mean(np.einsum("ij,jk,ik->i", z, precision, z)) - 0.5 * logdet)


def _nll_of(model, rows) -> float:
    return gaussian_nll(model.mean, model.precision, rows)


def run(op: Op, tracer=None):
    x = op.inputs
    if op.kind == "wasserstein_shrinkage":
        return shrinkage.wasserstein_shrinkage(x["moments"], x["eps"])
    if op.kind == "cv_radius":
        train_fn, eval_fn = _shrink_model, _nll_of
        if tracer is not None:
            train_fn = tracer.wrap_fn(train_fn, "calibrate.train_fn")
            eval_fn = tracer.wrap_fn(eval_fn, "calibrate.eval_fn")
        return calibrate.cv_radius(train_fn, eval_fn, x["samples"], CV_GRID, folds=CV_FOLDS, seed=x["seed"])
    if op.kind == "fw_solve":
        joint = mmse.JointMoments(x["mx"], x["my"], x["mean"], x["cov"])
        return mmse.fw_solve(joint, x["eps"], iters=FW_ITERS)
    loss = learn.UnivariateLoss(x["loss"], x["delta"])
    norm = None if x["norm_p"] is None else convex_analysis.NormSpec.p_norm(x["norm_p"])
    if loss.is_classification:
        return learn.dro_train_classifier(x["X"], x["y"], loss, x["eps"], input_norm=norm)
    p = 2.0 if x["loss"] == "squared" else 1.0
    return learn.dro_train_regressor(x["X"], x["y"], loss, x["eps"], p, input_norm=norm)


# ---------------------------------------------------------------------------
# Independent oracles.


def _dual_order(norm_p):
    if norm_p is None:
        return 2.0
    return 1.0 if norm_p == math.inf else math.inf


def loss_values(kind, delta, z):
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - z)
    if kind == "smooth_hinge":
        return np.where(z <= 0.0, 0.5 - z, np.where(z < 1.0, 0.5 * (1.0 - z) ** 2, 0.0))
    if kind == "logloss":
        return np.logaddexp(0.0, -z)
    if kind == "squared":
        return z * z
    if kind == "huber":
        return np.where(np.abs(z) <= delta, 0.5 * z * z, delta * (np.abs(z) - 0.5 * delta))
    if kind == "eps_insensitive":
        return np.maximum(0.0, np.abs(z) - delta)
    return np.maximum(-delta * z, (1.0 - delta) * z)  # pinball


def loss_slopes(kind, delta, z):
    """Derivatives of the smooth losses."""
    if kind == "smooth_hinge":
        return np.where(z <= 0.0, -1.0, np.where(z < 1.0, z - 1.0, 0.0))
    if kind == "logloss":
        return -0.5 * (1.0 - np.tanh(0.5 * z))
    return np.clip(z, -delta, delta)  # huber


def lipschitz(kind, delta) -> float:
    if kind == "huber":
        return delta
    if kind == "pinball":
        return max(delta, 1.0 - delta)
    return 1.0


def objective(x, w) -> float:
    kind, delta = x["loss"], x["delta"]
    pen = x["eps"] * np.linalg.norm(w, ord=_dual_order(x["norm_p"]))
    if kind in CLASSIFICATION:
        return float(np.mean(loss_values(kind, delta, x["y"] * (x["X"] @ w))) + pen)
    r = x["X"] @ w - x["y"]
    if kind == "squared":
        return float((math.sqrt(np.mean(r * r)) + pen) ** 2)
    return float(np.mean(loss_values(kind, delta, r)) + lipschitz(kind, delta) * pen)


def lp_optimum(x) -> float:
    """Piecewise-linear loss plus a polyhedral norm penalty, as an LP for HiGHS."""
    from scipy.optimize import linprog

    kind, delta, X, y = x["loss"], x["delta"], x["X"], x["y"]
    N, d = X.shape
    if kind == "hinge":
        Z, off, pieces = y[:, None] * X, np.zeros(N), ((0.0, 0.0), (-1.0, 1.0))
    elif kind == "pinball":
        Z, off, pieces = X, -y, ((-delta, 0.0), (1.0 - delta, 0.0))
    else:
        Z, off, pieces = X, -y, ((0.0, 0.0), (1.0, -delta), (-1.0, -delta))
    dual = _dual_order(x["norm_p"])
    n_pen = d if dual == 1.0 else 1
    n_var = d + N + n_pen
    rows, rhs = [], []
    for slope, icpt in pieces:  # s_i >= slope * (Z_i w + off_i) + icpt
        R = np.zeros((N, n_var))
        R[:, :d] = slope * Z
        R[np.arange(N), d + np.arange(N)] = -1.0
        rows.append(R)
        rhs.append(-slope * off - icpt)
    for sign in (1.0, -1.0):  # |w_k| <= u_k (1-norm) or <= t (inf-norm)
        R = np.zeros((d, n_var))
        R[:, :d] = sign * np.eye(d)
        R[np.arange(d), d + N + (np.arange(d) if n_pen == d else 0)] = -1.0
        rows.append(R)
        rhs.append(np.zeros(d))
    cost = np.concatenate([np.zeros(d), np.full(N, 1.0 / N), np.full(n_pen, x["eps"] * lipschitz(kind, delta))])
    bounds = [(None, None)] * (d + N) + [(0.0, None)] * n_pen
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def smooth_optimum(x) -> float:
    """Smooth loss plus eps times the Euclidean norm, by BFGS from a fixed start."""
    from scipy.optimize import minimize

    kind, delta, X, y, eps = x["loss"], x["delta"], x["X"], x["y"], x["eps"]
    N = X.shape[0]
    classification = kind in CLASSIFICATION
    Z = y[:, None] * X if classification else X

    def fun(w):
        nw = math.sqrt(float(w @ w))
        gpen = w / nw if nw > 0 else np.zeros_like(w)
        if kind == "squared":
            r = X @ w - y
            rmse = math.sqrt(float(r @ r) / N)
            outer = rmse + eps * nw
            return outer**2, 2.0 * outer * (X.T @ r / (N * rmse) + eps * gpen)
        z = Z @ w if classification else X @ w - y
        lip = 1.0 if classification else lipschitz(kind, delta)
        val = float(np.mean(loss_values(kind, delta, z))) + lip * eps * nw
        return val, Z.T @ loss_slopes(kind, delta, z) / N + lip * eps * gpen

    res = minimize(fun, np.full(X.shape[1], 0.1), jac=True, method="BFGS", options={"gtol": 1e-10, "maxiter": 2000})
    return float(res.fun)


def shrinkage_closed_form(sigma, eps):
    """Precision and multiplier of the Wasserstein shrinkage estimator.

    gamma solves (eps^2 - sum(lam)/2) g - m + sum(sqrt(lam^2 g^2 + 4 lam g))/2 = 0
    and the precision keeps the eigenvectors of sigma with eigenvalues
    g (1 - (sqrt(lam^2 g^2 + 4 lam g) - lam g) / 2).
    """
    from scipy.optimize import brentq

    lam, V = np.linalg.eigh(sigma)
    lam = np.clip(lam, 0.0, None)
    lam[lam < 1e-12 * max(1.0, float(lam.max()))] = 0.0  # rank deficiency is exact zeros
    m = lam.size

    def residual(g):
        return (eps**2 - 0.5 * lam.sum()) * g - m + 0.5 * np.sqrt(lam**2 * g**2 + 4.0 * lam * g).sum()

    hi = 1.0
    while residual(hi) < 0.0:
        hi *= 2.0
    g = brentq(residual, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=1000)
    u = lam * g
    x = g * (1.0 - 2.0 * u / (np.sqrt(u * u + 4.0 * u) + u + (u == 0.0)))
    return (V * x) @ V.T, g, residual


def schur_objective(S, mx) -> float:
    return float(np.trace(S[:mx, :mx] - S[:mx, mx:] @ np.linalg.solve(S[mx:, mx:], S[mx:, :mx])))


def _independent_optimum(x) -> float:
    return lp_optimum(x) if x["loss"] in ("hinge", "pinball", "eps_insensitive") else smooth_optimum(x)


def _check_train(x, model) -> str | None:
    value = objective(x, model.weights)
    if off(model.value, value, 1e-9):
        return f"reported objective {model.value!r} but the weights give {value!r}"
    ref = _independent_optimum(x)
    if value > ref + SUBOPT_TOL * (1.0 + abs(ref)):
        return f"objective {value!r} exceeds the independent optimum {ref!r}"
    return None


def suboptimality(op: Op, answer) -> float:
    """Relative excess of a training objective over the independent optimum."""
    ref = _independent_optimum(op.inputs)
    return (objective(op.inputs, answer.weights) - ref) / (1.0 + abs(ref))


def _check_fw(x, res) -> str | None:
    from wl_worst_case import gelbrich_dist2

    S, mx = np.asarray(res.S), x["mx"]
    m = S.shape[0]
    if np.abs(S - S.T).max() > 1e-10 * (1.0 + np.abs(S).max()):
        return "covariance is not symmetric"
    center = x["cov"] + res.regularization * np.eye(m)
    if np.linalg.eigvalsh(S).min() < -1e-10 * np.abs(S).max():
        return "covariance is not positive semidefinite"
    d2 = gelbrich_dist2(np.zeros(m), center, np.zeros(m), S)
    if d2 > x["eps"] ** 2 * (1.0 + 1e-7):
        return f"covariance at squared Gelbrich distance {d2!r} > eps^2"
    if schur_objective(S, mx) < schur_objective(center, mx) - 1e-9 * (1.0 + abs(schur_objective(center, mx))):
        return "worst-case MSE below that of the nominal start"
    gain = np.linalg.solve(S[mx:, mx:], S[mx:, :mx]).T
    if np.abs(gain - res.estimator.gain).max() > 1e-8 * (1.0 + np.abs(gain).max()):
        return "estimator gain is not S_xy S_yy^-1 of the returned covariance"
    offset = x["mean"][:mx] - gain @ x["mean"][mx:]
    if np.abs(offset - res.estimator.offset).max() > 1e-8 * (1.0 + np.abs(offset).max()):
        return "estimator offset does not match the means"
    if len(res.gaps) > FW_ITERS or not np.all(np.isfinite(res.gaps)):
        return "gap history is malformed"
    return None


def _check_shrink(x, res) -> str | None:
    P, g, residual = shrinkage_closed_form(x["moments"].sigma, x["eps"])
    if abs(residual(res.gamma_star)) > SHRINK_RESIDUAL:
        return f"shrinkage equation residual {residual(res.gamma_star):.2e} at the returned gamma"
    if off(res.gamma_star, g, 1e-8):
        return f"gamma {res.gamma_star!r} differs from the closed form {g!r}"
    if np.abs(res.precision - P).max() > 1e-8 * (1.0 + np.abs(P).max()):
        return "precision differs from the closed form"
    if np.abs(res.mean - x["moments"].mu).max() > 0.0:
        return "mean estimate is not the sample mean"
    return None


def _check_cv(x, eps) -> str | None:
    samples = x["samples"]
    if eps not in CV_GRID:
        return f"radius {eps!r} is not in the grid"
    assign = calibrate.fold_assignments(samples.shape[0], CV_FOLDS, x["seed"])
    risks = {}
    for e in CV_GRID:
        total = 0.0
        for k in range(CV_FOLDS):
            train, test = samples[assign != k], samples[assign == k]
            mean = train.mean(axis=0)
            cov = (train - mean).T @ (train - mean) / train.shape[0]
            P, _, _ = shrinkage_closed_form(cov, e)
            total += test.shape[0] * gaussian_nll(mean, P, test)
        risks[e] = total / samples.shape[0]
    best = min(risks.values())
    if risks[eps] > best + 1e-9 * (1.0 + abs(best)):
        return f"radius {eps!r} has risk {risks[eps]!r}, the grid minimum is {best!r}"
    return None


def check(op: Op, answer) -> str | None:
    x = op.inputs
    if op.kind == "train":
        return _check_train(x, answer)
    if op.kind == "fw_solve":
        return _check_fw(x, answer)
    if op.kind == "wasserstein_shrinkage":
        return _check_shrink(x, answer)
    return _check_cv(x, answer)


def fingerprint(op: Op, answer) -> bytes:
    if isinstance(answer, float):
        return digest(answer)
    if isinstance(answer, learn.TrainedModel):
        return digest(answer.weights, answer.value, answer.iterations, answer.gap)
    if isinstance(answer, shrinkage.ShrinkageResult):
        return digest(answer.mean, answer.precision, answer.gamma_star)
    return digest(answer.S, answer.estimator.gain, answer.estimator.offset, answer.gaps)


def corrupt(op: Op, answer):
    """Perturb the reported value or estimate."""
    if isinstance(answer, float):
        return CV_GRID[(CV_GRID.index(answer) + 2) % len(CV_GRID)]
    if isinstance(answer, learn.TrainedModel):
        return learn.TrainedModel(answer.weights * 1.01 + 0.01, answer.value, answer.iterations, answer.gap)
    if isinstance(answer, shrinkage.ShrinkageResult):
        return shrinkage.ShrinkageResult(answer.mean, answer.precision * 1.001, answer.gamma_star, answer.eigen_map)
    return answer._replace(S=answer.S * 1.5)
