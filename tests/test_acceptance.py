"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import json
import math
import time

import numpy as np

from wdro.calibrate import TailModel, radius_empirical
from wdro.cli import main
from wdro.convex_analysis import NormSpec, SetSpec, dual_norm_eval
from wdro.empirical_risk import (
    BallSpec,
    PiecewiseAffineLoss,
    QuadraticLoss,
    expected_loss,
    extremal_pwa,
    extremal_quadratic,
    wc_risk_pwa,
    wc_risk_quadratic,
)
from wdro.learn import UnivariateLoss, dro_objective_crosscheck, dro_train_classifier, dro_train_regressor
from wdro.mmse import JointMoments, fw_iterates, fw_solve, mmse_gradient, mmse_objective
from wdro.moment_risk import gelbrich_risk_quadratic
from wdro.shrinkage import wasserstein_shrinkage
from wdro.transport import DiscreteDistribution, MomentPair, gelbrich_distance, moments, wasserstein_p


def ramp_loss():
    """max(0, xi - 1) on the line."""
    return PiecewiseAffineLoss([(np.array([0.0]), 0.0), (np.array([1.0]), -1.0)])


def random_moments(rng, m):
    mu = rng.normal(size=m)
    B = rng.normal(size=(m, m))
    return MomentPair(mu, B @ B.T + 0.1 * np.eye(m))


def test_criterion_01_escaping_worst_case_on_the_line():
    start = time.perf_counter()
    d0 = DiscreteDistribution(np.array([[0.0]]))
    loss = ramp_loss()
    for eps in (0.1, 0.5, 1.0, 3.0):
        ball = BallSpec(eps, 1.0)
        value = wc_risk_pwa(loss, d0, ball)
        assert abs(value - eps) <= 1e-9
        rep = extremal_pwa(loss, d0, ball)
        assert rep.kind == "asymptotic"
        risk = expected_loss(loss, rep.family.distribution(10**6))
        assert abs(risk - eps) <= 2.0 * eps / 10**6 + 1e-9
    assert time.perf_counter() - start < 1.0


def test_criterion_02_truncated_support_extremal_is_attained():
    d0 = DiscreteDistribution(np.array([[0.0]]))
    loss = ramp_loss()
    halfline = SetSpec.polyhedron(np.array([[1.0]]), np.array([2.0]))
    for eps in (0.5, 1.0, 1.5):
        ball = BallSpec(eps, 1.0, support=halfline)
        value = wc_risk_pwa(loss, d0, ball)
        assert abs(value - eps / 2.0) <= 1e-9
        rep = extremal_pwa(loss, d0, ball)
        assert rep.kind == "attained"
        dist = rep.distribution.merged(1e-9)
        order = np.argsort(dist.atoms[:, 0])
        assert np.allclose(dist.atoms[order, 0], [0.0, 2.0], atol=1e-9)
        assert np.allclose(dist.weights[order], [1.0 - eps / 2.0, eps / 2.0], atol=1e-9)


def test_criterion_03_lp_value_equals_lipschitz_regularization():
    rng = np.random.default_rng(7)
    for trial in range(100):
        N = int(rng.integers(1, 21))
        m = int(rng.integers(1, 6))
        J = int(rng.integers(1, 5))
        atoms = rng.normal(size=(N, m))
        w = rng.random(N) + 0.05
        samples = DiscreteDistribution(atoms, w / w.sum())
        loss = PiecewiseAffineLoss(
            [(rng.normal(size=m), float(rng.normal())) for _ in range(J)]
        )
        norm = NormSpec.p_norm(1.0) if trial % 2 == 0 else NormSpec.p_norm(math.inf)
        eps = float(rng.random() * 2 + 0.01)
        ball = BallSpec(eps, 1.0, norm=norm)
        # the cells' cutting plane, which extremal_pwa runs on the whole space
        lp_value = extremal_pwa(loss, samples, ball).certified_value
        lip = max(dual_norm_eval(norm, a) for a in loss.A)
        nominal = expected_loss(loss, samples)
        assert abs(lp_value - (nominal + eps * lip)) <= 1e-8


def test_criterion_04_transport_duality_and_metric_axioms():
    rng = np.random.default_rng(11)
    for trial in range(100):
        m = int(rng.integers(1, 5))
        n1, n2, n3 = (int(rng.integers(1, 21)) for _ in range(3))
        mk = lambda n: DiscreteDistribution(
            rng.normal(size=(n, m)), (lambda v: v / v.sum())(rng.random(n) + 0.05)
        )
        Q, Qp, R = mk(n1), mk(n2), mk(n3)
        p = 1.0 if trial % 2 == 0 else 2.0

        res = wasserstein_p(Q, Qp, p)
        dual_value = float(res.duals.psi @ Qp.weights - res.duals.phi @ Q.weights)
        assert abs(res.distance**p - dual_value) <= 1e-8

        assert wasserstein_p(Q, Q, p).distance <= 1e-8
        assert abs(wasserstein_p(Qp, Q, p).distance - res.distance) <= 1e-8
        via = wasserstein_p(Q, R, p).distance + wasserstein_p(R, Qp, p).distance
        assert res.distance <= via + 1e-8

        w1 = wasserstein_p(Q, Qp, 1.0).distance
        w2 = wasserstein_p(Q, Qp, 2.0).distance
        assert w2 >= w1 - 1e-8
        assert gelbrich_distance(moments(Q), moments(Qp)) <= w2 + 1e-8


def test_criterion_05_scalar_quadratic_dual_and_linear_closed_form():
    d0 = DiscreteDistribution(np.array([[0.0]]))
    unit_quad = QuadraticLoss(np.array([[1.0]]), np.array([0.0]))
    for eps in (0.1, 0.5, 1.0, 2.0):
        value = wc_risk_quadratic(unit_quad, d0, eps)
        assert abs(value - eps**2) <= 1e-9
        rep = extremal_quadratic(unit_quad, d0, eps)
        n = 10**6
        risk = expected_loss(
            unit_quad, rep.family.distribution(n) if rep.family else rep.distribution
        )
        assert abs(risk - value) <= 10.0 * (1.0 + value) / n + 1e-8

    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        N = int(rng.integers(1, 8))
        q = rng.normal(size=m)
        atoms = rng.normal(size=(N, m))
        samples = DiscreteDistribution(atoms)
        eps = float(rng.random() + 0.05)
        value = wc_risk_quadratic(QuadraticLoss(np.zeros((m, m)), q), samples, eps)
        mu_hat = atoms.mean(axis=0)
        closed = 2.0 * q @ mu_hat + 2.0 * eps * np.linalg.norm(q)
        assert abs(value - closed) <= 1e-8


def test_criterion_06_gelbrich_quadratic_risk():
    for eps in (0.25, 0.5, 2.0):
        res = gelbrich_risk_quadratic(
            QuadraticLoss(np.array([[1.0]]), np.array([0.0])),
            MomentPair(np.array([0.0]), np.array([[1.0]])),
            eps,
        )
        assert abs(res.value - (1.0 + eps) ** 2) <= 1e-8
        assert abs(res.extremal.mu[0]) <= 1e-8
        assert abs(res.extremal.sigma[0, 0] - (1.0 + eps) ** 2) <= 1e-6 * (1.0 + eps) ** 2

    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        center = random_moments(rng, m)
        # Indefinite quadratic: eigenvalues of both signs.
        B = rng.normal(size=(m, m))
        Qm = B + B.T
        w = np.linalg.eigvalsh(Qm)
        if w.min() > -0.1:
            Qm -= (w.min() + 1.0) * np.eye(m)
        loss = QuadraticLoss(Qm, rng.normal(size=m))
        eps = float(rng.random() * 1.5 + 0.05)
        res = gelbrich_risk_quadratic(loss, center, eps)
        assert res.interior
        assert abs(res.value - res.primal_value) <= 1e-7 * max(1.0, abs(res.value))
        dist = gelbrich_distance(center, res.extremal)
        assert abs(dist - eps) <= 1e-6

    for _ in range(50):
        m = int(rng.integers(1, 4))
        N = int(rng.integers(2, 11))
        atoms = rng.normal(size=(N, m))
        samples = DiscreteDistribution(atoms)
        B = rng.normal(size=(m, m))
        loss = QuadraticLoss(B + B.T, rng.normal(size=m))
        eps = float(rng.random() + 0.05)
        ball_value = wc_risk_quadratic(loss, samples, eps)
        hull_value = gelbrich_risk_quadratic(loss, moments(samples), eps).value
        assert hull_value >= ball_value - 1e-6 * max(1.0, abs(ball_value))


def test_criterion_07_shrinkage_estimator():
    start = time.perf_counter()
    res = wasserstein_shrinkage(MomentPair(np.array([0.0]), np.array([[1.0]])), 1.0)
    assert abs(res.gamma_star - 0.5) <= 1e-10
    assert abs(res.eigen_map[0][1] - 0.25) <= 1e-10

    rng = np.random.default_rng(29)
    for m in (3, 8, 20):
        B = rng.normal(size=(m, m))
        sigma = B @ B.T + 0.5 * np.eye(m)
        pair = MomentPair(np.zeros(m), sigma)
        X = wasserstein_shrinkage(pair, 1e-6).precision
        inv = np.linalg.inv(sigma)
        assert np.linalg.norm(X - inv) <= 1e-4 * np.linalg.norm(inv)

    B = rng.normal(size=(4, 4))
    pair = MomentPair(np.zeros(4), B @ B.T + 0.2 * np.eye(4))
    grid = np.geomspace(1e-3, 1e3, 20)
    runs = [wasserstein_shrinkage(pair, float(e)) for e in grid]
    gammas = [r.gamma_star for r in runs]
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    for r in runs:
        lam = np.array([p[0] for p in r.eigen_map])
        x = np.array([p[1] for p in r.eigen_map])
        assert all(
            x[i] >= x[j] - 1e-12 for i in range(4) for j in range(4) if lam[i] < lam[j]
        )
    conds = [np.linalg.cond(r.precision) for r in runs]
    assert all(a >= b - 1e-9 for a, b in zip(conds, conds[1:]))
    assert conds[-1] <= 1.05
    assert time.perf_counter() - start < 5.0


def test_criterion_08_robust_mmse():
    rng = np.random.default_rng(31)
    B = rng.normal(size=(5, 5))
    cov = B @ B.T + 0.3 * np.eye(5)
    joint = JointMoments(2, 3, rng.normal(size=5), cov)
    res = fw_solve(joint, 0.0, iters=5)
    classical = cov[:2, 2:] @ np.linalg.inv(cov[2:, 2:])
    assert np.max(np.abs(res.estimator.gain - classical)) <= 1e-8

    for _ in range(6):
        B = rng.normal(size=(5, 5))
        S = B @ B.T + 0.5 * np.eye(5)
        grad = mmse_gradient(S, 2)
        H = rng.normal(size=(5, 5))
        H = 0.5 * (H + H.T)
        h = 1e-6
        fd = (mmse_objective(S + h * H, 2) - mmse_objective(S - h * H, 2)) / (2 * h)
        an = float(np.sum(grad * H))
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    for _ in range(10):
        B = rng.normal(size=(6, 6))
        cov = B @ B.T + 0.4 * np.eye(6)
        joint = JointMoments(3, 3, np.zeros(6), cov)
        eps = float(rng.random() * 0.4 + 0.05)
        states = list(fw_iterates(joint, eps, iters=1000))
        zero = np.zeros(6)
        for state in states:
            dist = gelbrich_distance(MomentPair(zero, state.S), MomentPair(zero, cov))
            assert dist <= eps + 1e-6
        gaps = np.array([state.gap for state in states])
        assert gaps.min() >= -1e-9
        C = max((k + 2.0) * g for k, g in enumerate(gaps[:10]))
        ks = np.arange(gaps.size)
        assert np.all(gaps <= C / (ks + 2.0) + 1e-9)

    cov_bd = np.block(
        [[np.array([[2.0, 0.3], [0.3, 1.0]]), np.zeros((2, 2))],
         [np.zeros((2, 2)), np.array([[1.5, -0.2], [-0.2, 0.9]])]]
    )
    res = fw_solve(JointMoments(2, 2, np.zeros(4), cov_bd), 0.3, iters=50)
    assert np.all(res.estimator.gain == 0.0)


def test_criterion_09_robust_linear_learning():
    X1, y1 = np.array([[1.0]]), np.array([1.0])
    hinge = UnivariateLoss("hinge")
    for eps in (0.25, 0.5):
        model = dro_train_classifier(X1, y1, hinge, eps)
        assert abs(model.value - eps) <= 1e-8
        assert abs(model.weights[0] - 1.0) <= 1e-8
    for eps in (1.5, 3.0):
        model = dro_train_classifier(X1, y1, hinge, eps)
        assert abs(model.value - 1.0) <= 1e-8
        assert abs(model.weights[0]) <= 1e-8

    rng = np.random.default_rng(37)
    norms = [None, NormSpec.p_norm(1.0), NormSpec.p_norm(math.inf)]
    for trial in range(50):
        N = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(N, d))
        eps = float(rng.random() * 0.5 + 0.05)
        norm = norms[trial % 3]
        if trial % 2 == 0:
            y = rng.choice([-1.0, 1.0], size=N)
            model = dro_train_classifier(X, y, hinge, eps, input_norm=norm)
            _, _, diff = dro_objective_crosscheck(model, X, y, hinge, eps, norm)
        else:
            y = rng.normal(size=N)
            loss = UnivariateLoss("pinball", delta=(0.3, 0.5, 0.7)[trial % 3])
            model = dro_train_regressor(X, y, loss, eps, 1.0, input_norm=norm)
            _, _, diff = dro_objective_crosscheck(model, X, y, loss, eps, norm)
        assert abs(diff) <= 1e-6

    squared = UnivariateLoss("squared")
    for _ in range(5):
        N, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
        X = rng.normal(size=(N, d))
        y = X @ rng.normal(size=d) + 0.2 * rng.normal(size=N)
        model = dro_train_regressor(X, y, squared, 0.0, 2.0)
        w_ols, *_ = np.linalg.lstsq(X, y, rcond=None)
        assert np.max(np.abs(model.weights - w_ols)) <= 1e-8


def test_criterion_10_calibration_coverage():
    start = time.perf_counter()
    mu = np.array([0.3, 0.2])
    L = np.linalg.cholesky(np.array([[1.0, 0.2], [0.2, 0.8]]))
    w = np.array([1.0, 0.5])
    z_mean = float(w @ mu)
    z_sd = math.sqrt(float(w @ (L @ L.T) @ w))
    zz = (1.0 - z_mean) / z_sd
    phi = math.exp(-0.5 * zz * zz) / math.sqrt(2.0 * math.pi)
    Phi = 0.5 * (1.0 + math.erf(zz / math.sqrt(2.0)))
    truth = (1.0 - z_mean) * Phi + z_sd * phi

    # In dimension 2 a type-1 ball hits the excluded p = m/2 boundary of the
    # radius formula, so the type-2 ball is the natural calibrated set here.
    n, eta = 50, 0.1
    eps = radius_empirical(TailModel(alpha=3.0, A=2.0, m=2), n, eta, 2.0)
    loss = PiecewiseAffineLoss([(np.zeros(2), 0.0), (-w, 1.0)])
    ball = BallSpec(eps, 2.0)
    rng = np.random.default_rng(41)
    hits = 0
    for _ in range(200):
        xi = mu + rng.normal(size=(n, 2)) @ L.T
        wc = wc_risk_pwa(loss, DiscreteDistribution(xi), ball)
        hits += wc >= truth
    assert hits / 200 >= 1.0 - eta - 0.05
    assert time.perf_counter() - start < 30.0


def test_criterion_11_cli_reports_are_deterministic(tmp_path):
    def jdump(path, obj):
        path.write_text(json.dumps(obj))
        return str(path)

    csvp = tmp_path / "data.csv"
    csvp.write_text("a,b\n0.5,1.0\n-0.3,-1.0\n1.2,1.0\n0.1,-1.0\n")
    dist_a = jdump(tmp_path / "qa.json", {"atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]})
    dist_b = jdump(tmp_path / "qb.json", {"atoms": [[0.5]]})
    pwa = jdump(tmp_path / "pwa.json", {"kind": "pwa", "slopes": [[0.0], [1.0]], "intercepts": [0.0, -1.0]})
    quad = jdump(tmp_path / "quad.json", {"kind": "quadratic", "Q": [[1.0]], "q": [0.2]})
    pair = jdump(tmp_path / "m.json", {"mean": [0.1], "cov": [[1.3]]})
    joint = jdump(tmp_path / "j.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.4], [0.4, 2.0]]})
    # rank-deficient covariances, which the lift moves off singularity
    singular = jdump(
        tmp_path / "s.json", {"mean": [1.0, -1.0, 0.5], "cov": [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    )
    center = jdump(tmp_path / "c.json", {"mean": [0.0, 1.0], "cov": [[1.0, 1.0], [1.0, 1.0]]})
    quad2 = jdump(tmp_path / "quad2.json", {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 2.0]], "q": [0.5, -0.5]})
    reg = tmp_path / "reg.csv"
    reg.write_text("x0,x1,y\n0.5,1.0,1.2\n-0.3,-1.0,-0.7\n1.2,0.4,2.0\n0.1,-0.6,0.3\n0.7,-0.2,0.9\n-0.9,0.3,-1.4\n")
    l1 = jdump(tmp_path / "l1.json", {"kind": "p", "p": 1})
    # 150 x 150 atoms: large enough for the transport simplex's block pricing
    rng = np.random.default_rng(150)
    big = []
    for name, offset in (("q150.json", 0.0), ("qp150.json", 0.5)):
        w = rng.uniform(0.2, 1.0, 150)
        atoms = rng.normal(size=(150, 3)) + offset
        big.append(jdump(tmp_path / name, {"atoms": atoms.tolist(), "weights": (w / w.sum()).tolist()}))

    invocations = [
        ["transport", "--q", dist_a, "--qp", dist_b, "--p", "2"],
        ["transport", "--q", big[0], "--qp", big[1], "--p", "2"],
        ["wc-risk", "--samples", dist_a, "--loss", pwa, "--eps", "0.4", "--p", "1"],
        ["gelbrich", "--moments", pair, "--loss", quad, "--eps", "0.6"],
        ["gelbrich", "--moments", center, "--loss", quad2, "--eps", "0.5"],
        ["shrink", "--input", str(csvp), "--eps", "0.5"],
        ["mmse", "--moments", joint, "--mx", "1", "--eps", "0.2", "--iters", "80"],
        ["mmse", "--moments", singular, "--mx", "1", "--eps", "0.2"],
        ["train", "--input", str(csvp), "--loss", "hinge", "--eps", "0.3"],
        ["train", "--input", str(reg), "--loss", "pinball", "--delta", "0.3", "--p", "1", "--eps", "0.2", "--norm", l1],
        ["calibrate", "--mode", "moments", "--n", "200", "--eta", "0.05"],
    ]
    out = tmp_path / "report.json"
    for argv in invocations:
        texts = []
        for _ in range(2):
            assert main(argv + ["--output", str(out)]) == 0
            obj = json.loads(out.read_text())
            obj["timings"] = {}
            texts.append(json.dumps(obj, indent=2, sort_keys=True))
        assert texts[0] == texts[1], argv[0]
