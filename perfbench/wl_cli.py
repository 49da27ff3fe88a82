"""Workload ``cli``: the seven ``wdro`` commands, each in its own process.

One pass runs ``python -m wdro.cli`` once per command on small inputs that
set-up writes from the seed, and ``train`` twice (hinge classification and
squared-loss regression): 8 sequential subprocesses.  Interpreter start,
imports, descriptor and CSV parsing and report writing dominate six of them;
each ``train`` adds about as much again of subgradient iterations.  Two
``train`` ops make a quarter of the pass, so the 90th latency percentile
falls in the middle of their block and not at its lower edge, where a few
ops slowed by the machine would move it.

Checks: exit code 0, the report validates against the shipped
``report.schema.json``, its results equal the library's answer computed in
this process, and every rerun reproduces the report byte for byte apart
from the ``timings`` block.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import wdro.calibrate as calibrate
import wdro.convex_analysis as convex_analysis
import wdro.empirical_risk as empirical_risk
import wdro.learn as learn
import wdro.mmse as mmse
import wdro.moment_risk as moment_risk
import wdro.shrinkage as shrinkage
import wdro.transport as transport
from harness import Op, digest, spread

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "src" / "wdro" / "report.schema.json"
MAIN_RESULT = {
    "calibrate": "radius",
    "transport": "distance",
    "wc-risk": "value",
    "gelbrich": "value",
    "shrink": "gamma_star",
    "mmse": "worst_case_mse",
    "train": "value",
}


@dataclasses.dataclass(frozen=True)
class CliAnswer:
    returncode: int
    report: bytes
    stderr: str


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _write_csv(path: Path, header, rows) -> str:
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _dist(rng, n, m):
    w = rng.uniform(0.2, 1.0, n)
    return {"atoms": rng.normal(size=(n, m)).tolist(), "weights": (w / w.sum()).tolist()}


def make_ops(seed: int, tiny: bool = False, work_dir=None) -> list[Op]:
    rng = np.random.default_rng([seed, 5])
    d = Path(work_dir)
    ops = []

    def add(cmd, args, data, label=None):
        label = label or cmd
        ops.append(Op(cmd, label, dict(args=args, data=data, output=str(d / f"{label}.report.json"))))

    cal = dict(n=int(rng.integers(50, 500)), eta=float(rng.uniform(0.01, 0.2)), p=1.0, alpha=3.0, bound=1.0, dim=4)
    add("calibrate", ["--mode", "empirical", "--n", str(cal["n"]), "--eta", repr(cal["eta"]), "--p", "1",
                      "--alpha", "3", "--bound", "1", "--dim", "4"], cal)

    q, qp = _dist(rng, 5, 2), _dist(rng, 6, 2)
    add("transport", ["--q", _write_json(d / "q.json", q), "--qp", _write_json(d / "qp.json", qp), "--p", "2"],
        dict(q=q, qp=qp, p=2.0))

    samples = {"atoms": rng.uniform(-1.0, 1.0, size=(6, 2)).tolist()}
    loss = {"kind": "pwa", "slopes": rng.normal(size=(3, 2)).tolist(), "intercepts": rng.normal(size=3).tolist()}
    box = {"kind": "polyhedron", "C": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "d": [1.5, 1.5, 1.5, 1.5]}
    eps = float(rng.uniform(0.1, 0.5))
    add("wc-risk", ["--samples", _write_json(d / "samples.json", samples), "--loss", _write_json(d / "pwa.json", loss),
                    "--eps", repr(eps), "--p", "1", "--norm", _write_json(d / "norm.json", {"kind": "p", "p": 1.0}),
                    "--support", _write_json(d / "box.json", box)],
        dict(samples=samples, loss=loss, box=box, eps=eps))

    R = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    moments = {"mean": rng.normal(size=3).tolist(), "cov": (R @ R.T / 3 + 0.1 * np.eye(3)).tolist()}
    quad = {"kind": "quadratic", "Q": (0.5 * (B + B.T)).tolist(), "q": rng.normal(size=3).tolist()}
    eps = float(rng.uniform(0.1, 0.8))
    add("gelbrich", ["--moments", _write_json(d / "moments.json", moments), "--loss", _write_json(d / "quad.json", quad),
                     "--eps", repr(eps)], dict(moments=moments, quad=quad, eps=eps))

    rows = rng.normal(size=(30, 5))
    eps = float(rng.uniform(0.1, 1.0))
    add("shrink", ["--input", _write_csv(d / "shrink.csv", [f"x{k}" for k in range(5)], rows), "--eps", repr(eps)],
        dict(rows=rows, eps=eps))

    R = rng.normal(size=(4, 4))
    joint = {"mean": rng.normal(size=4).tolist(), "cov": (R @ R.T / 4 + 0.5 * np.eye(4)).tolist()}
    eps = float(rng.uniform(0.1, 0.4))
    add("mmse", ["--moments", _write_json(d / "joint.json", joint), "--mx", "1", "--eps", repr(eps), "--iters", "20"],
        dict(joint=joint, eps=eps))

    X = rng.normal(size=(8, 2))
    y = np.where(X @ rng.normal(size=2) + 0.5 * rng.normal(size=8) >= 0.0, 1.0, -1.0)
    eps = float(rng.uniform(0.05, 0.3))
    add("train", ["--input", _write_csv(d / "train.csv", ["x0", "x1", "y"], np.column_stack([X, y])),
                  "--loss", "hinge", "--eps", repr(eps)], dict(X=X, y=y, eps=eps, loss="hinge"), "train-hinge")

    X = rng.normal(size=(8, 2))
    y = X @ rng.normal(size=2) + 0.3 * rng.normal(size=8)
    eps = float(rng.uniform(0.05, 0.3))
    add("train", ["--input", _write_csv(d / "train-squared.csv", ["x0", "x1", "y"], np.column_stack([X, y])),
                  "--loss", "squared", "--eps", repr(eps)], dict(X=X, y=y, eps=eps, loss="squared"), "train-squared")
    return spread(ops)


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(all imports, numpy) in seconds from ``-X importtime`` output."""
    total = numpy_s = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        cumulative = int(fields[1]) * 1e-6
        name = fields[2].rstrip()
        if not name.startswith("  "):
            total += cumulative
        if name.strip() == "numpy" and numpy_s == 0.0:
            numpy_s = cumulative
    return total, numpy_s


def run(op: Op, tracer=None):
    x = op.inputs
    flags = ["-X", "importtime"] if tracer is not None else []
    cmd = [sys.executable, *flags, "-m", "wdro.cli", op.kind, *x["args"], "--output", x["output"]]
    Path(x["output"]).unlink(missing_ok=True)  # a report left by the previous pass must not pass for this one
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    report = Path(x["output"]).read_bytes() if proc.returncode in (0, 1) else b""
    if tracer is not None:
        total, numpy_s = parse_importtime(proc.stderr)
        compute = json.loads(report)["timings"]["total_seconds"] if report else 0.0
        tracer.add("cli.commands", 1)
        tracer.add("cli.process_s", wall)
        tracer.add("cli.compute_s", compute)
        tracer.add("cli.import_s", total)
        tracer.add("cli.numpy_import_s", numpy_s)
        tracer.add("cli.report_bytes", len(report))
    return CliAnswer(proc.returncode, report, proc.stderr)


# ---------------------------------------------------------------------------
# Checks against the library, computed in this process.


def _expected(kind: str, x) -> dict:
    if kind == "calibrate":
        model = calibrate.TailModel(alpha=x["alpha"], A=x["bound"], m=x["dim"])
        return {"radius": calibrate.radius_empirical(model, x["n"], x["eta"], x["p"])}
    if kind == "transport":
        q = transport.DiscreteDistribution(np.array(x["q"]["atoms"]), x["q"]["weights"])
        qp = transport.DiscreteDistribution(np.array(x["qp"]["atoms"]), x["qp"]["weights"])
        res = transport.wasserstein_p(q, qp, x["p"])
        return {"distance": res.distance, "plan": res.plan.matrix, "phi": res.duals.phi, "psi": res.duals.psi}
    if kind == "wc-risk":
        loss = empirical_risk.PiecewiseAffineLoss(list(zip(np.array(x["loss"]["slopes"]), x["loss"]["intercepts"])))
        box = convex_analysis.SetSpec.polyhedron(np.array(x["box"]["C"]), np.array(x["box"]["d"]))
        ball = empirical_risk.BallSpec(x["eps"], 1.0, norm=convex_analysis.NormSpec.p_norm(1.0), support=box)
        samples = transport.DiscreteDistribution(np.array(x["samples"]["atoms"]))
        return {"value": empirical_risk.wc_risk_pwa(loss, samples, ball)}
    if kind == "gelbrich":
        loss = empirical_risk.QuadraticLoss(np.array(x["quad"]["Q"]), np.array(x["quad"]["q"]))
        center = transport.MomentPair(np.array(x["moments"]["mean"]), np.array(x["moments"]["cov"]))
        res = moment_risk.gelbrich_risk_quadratic(loss, center, x["eps"])
        return {"value": res.value, "gamma_star": res.gamma_star, "extremal_mean": res.extremal.mu}
    if kind == "shrink":
        res = shrinkage.wasserstein_shrinkage(shrinkage.sample_moments(x["rows"]), x["eps"])
        return {"gamma_star": res.gamma_star, "precision": res.precision, "mean": res.mean}
    if kind == "mmse":
        mean, cov = np.array(x["joint"]["mean"]), np.array(x["joint"]["cov"])
        res = mmse.fw_solve(mmse.JointMoments(1, 3, mean, cov), x["eps"], iters=20)
        return {"gain": res.estimator.gain, "offset": res.estimator.offset, "gap_history": res.gaps,
                "worst_case_mse": mmse.mmse_objective(res.S, 1)}
    # The command splits the parsed CSV into column views; training follows the
    # layout of X in its last bits (weights move by ~1e-8), so pass the same views.
    data = np.column_stack([x["X"], x["y"]])
    loss = learn.UnivariateLoss(x["loss"])
    if loss.is_classification:
        model = learn.dro_train_classifier(data[:, :-1], data[:, -1], loss, x["eps"])
    else:
        model = learn.dro_train_regressor(data[:, :-1], data[:, -1], loss, x["eps"], 2.0)
    return {"weights": model.weights, "value": model.value, "iterations": model.iterations}


def check(op: Op, answer: CliAnswer) -> str | None:
    import jsonschema

    if answer.returncode != 0:
        return f"exit code {answer.returncode}: {answer.stderr.strip()[-200:]}"
    report = json.loads(answer.report)
    try:
        jsonschema.validate(report, json.loads(SCHEMA.read_text()))
    except jsonschema.ValidationError as exc:
        return f"report violates the schema: {exc.message}"
    if report["command"] != op.kind or report["error"] is not None:
        return "report names another command or carries an error"
    for key, want in _expected(op.kind, op.inputs["data"]).items():
        got = np.asarray(report["results"][key], dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=0.0):
            return f"results.{key} differs from the library"
    return None


_TIMINGS = re.compile(rb'\n  "timings": \{[^}]*\},?')


def fingerprint(op: Op, answer: CliAnswer) -> bytes:
    """The report bytes without the ``timings`` block, which alone may change."""
    return digest(str(answer.returncode), _TIMINGS.sub(b"", answer.report))


def corrupt(op: Op, answer: CliAnswer) -> CliAnswer:
    """Perturb the command's main result in the report."""
    report = json.loads(answer.report)
    key = MAIN_RESULT[op.kind]
    report["results"][key] = report["results"][key] * (1.0 + 1e-3) + 1e-3
    return CliAnswer(answer.returncode, json.dumps(report).encode(), answer.stderr)
