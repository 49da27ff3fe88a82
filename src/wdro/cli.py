"""Batch command line front end.

Each invocation reads local files, dispatches to one toolkit module, and
writes a single JSON report containing the resolved configuration, the
results, and cheap certificates (dual gaps, residuals) so downstream
checks need no recomputation.  Exit codes: 0 on success, 1 when the
computation itself fails (a partial report carrying the error is still
written), 2 on usage errors.

Reports are deterministic: re-running an identical configuration gives a
byte-identical document except for the ``timings`` block.  The shape is
published in ``report.schema.json`` next to this module.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time

import numpy as np

from . import __version__
from ._validation import radius
from .calibrate import MomentTailModel, TailModel, radius_empirical, radius_moments
from .empirical_risk import (
    BallSpec,
    PiecewiseAffineLoss,
    QuadraticLoss,
    _type1_extremal,
    _wc_pwa,
    expected_loss,
    wc_risk_quadratic,
)
from .errors import ToolkitError, UsageError
from .learn import UnivariateLoss, dro_objective_crosscheck, dro_train_classifier, dro_train_regressor
from .mmse import JointMoments, fw_solve, mmse_objective
from .moment_risk import gelbrich_risk_quadratic
from .numerics import DEFAULT_TOL, Tolerance
from .shrinkage import _eq51, sample_moments, wasserstein_shrinkage
from .transport import DiscreteDistribution, MomentPair, gelbrich_distance, kr_verify, wasserstein_p
from .convex_analysis import NormSpec, SetSpec, norm_eval

COMMANDS = ("transport", "wc-risk", "gelbrich", "shrink", "mmse", "train", "calibrate")

@dataclasses.dataclass
class RunConfig:
    """A validated invocation: scalars for the report echo, parsed payloads."""

    command: str
    options: dict
    payload: dict
    tol: Tolerance
    output: str | None


class _Parser(argparse.ArgumentParser):
    """Raises UsageError; flags must be spelled in full, so the --config
    pre-scan and the command's parser read every flag alike."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Input readers.


def _read_csv(path: str) -> np.ndarray:
    """Samples as rows; first line is a header and is skipped.  Every field
    must be a finite number."""
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise UsageError(f"{path}: empty file")
            width = len(header)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise UsageError(
                        f"{path}:{lineno}: expected {width} fields, found {len(row)}"
                    )
                try:
                    values = [float(v) for v in row]
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: {exc}") from exc
                if not all(map(math.isfinite, values)):
                    raise UsageError(f"{path}:{lineno}: non-finite field")
                rows.append(values)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return np.array(rows)


def _load(path: str, what: str, build):
    """``build`` applied to the JSON object in the file at ``path``.

    The one place where a JSON input's errors become usage errors: an
    unreadable file, invalid JSON, a value that is not an object, a missing
    field, a field of the wrong JSON type, an unknown kind and a library
    refusal each raise one UsageError that names the file once.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    try:
        return build(_object(obj, what))
    except KeyError as exc:
        raise UsageError(f"{path}: {what} descriptor is missing field {exc}") from exc
    except TypeError as exc:
        raise UsageError(f"{path}: {what} descriptor has a field of the wrong JSON type ({exc})") from exc
    except (ToolkitError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise UsageError(f"{what} must be a JSON object")
    return obj


def _by_kind(what: str, table: dict):
    """A builder that dispatches a descriptor object on its ``kind`` field."""

    def build(obj):
        kind = _object(obj, what).get("kind")
        if not isinstance(kind, str) or kind not in table:
            raise UsageError(f"unknown {what} kind {kind!r}")
        return table[kind](obj)

    return build


def _pwa(obj) -> PiecewiseAffineLoss:
    slopes, intercepts = np.array(obj["slopes"], dtype=float), np.array(obj["intercepts"], dtype=float)
    if slopes.ndim != 2 or intercepts.ndim != 1 or slopes.shape[0] != intercepts.size:
        raise UsageError("slopes must be JxM and intercepts length J")
    return PiecewiseAffineLoss(list(zip(slopes, intercepts)))


# The library constructors convert the JSON arrays and sizes themselves.
_norm = _by_kind("norm", {
    "p": lambda o: NormSpec.p_norm(float(o["p"])),
    "scaled": lambda o: NormSpec.scaled(float(o["alpha"]), float(o["p"])),
    "weighted": lambda o: NormSpec.weighted(o["matrix"], float(o["p"])),
    "block_sum": lambda o: NormSpec.block_sum([_norm(b) for b in o["blocks"]], o["sizes"]),
    "block_max": lambda o: NormSpec.block_max([_norm(b) for b in o["blocks"]], o["sizes"]),
})
_support = _by_kind("support", {
    "whole": lambda o: SetSpec.whole(o["dim"]),
    "polyhedron": lambda o: SetSpec.polyhedron(o["C"], o["d"]),
})
_loss = _by_kind("loss", {"pwa": _pwa, "quadratic": lambda o: QuadraticLoss(o["Q"], o["q"])})


def _distribution(path: str) -> DiscreteDistribution:
    if path.endswith(".csv"):
        return DiscreteDistribution(_read_csv(path))
    return _load(path, "distribution", lambda o: DiscreteDistribution(o["atoms"], o.get("weights")))


def _moments(path: str) -> MomentPair:
    return _load(path, "moment pair", lambda o: MomentPair(o["mean"], o["cov"]))


# ---------------------------------------------------------------------------
# Flag parsing: config-file entries are read as flags.


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--tol", type=float, default=None)
    shared.add_argument("--output", default=None)
    shared.add_argument("--config", default=None)

    top = _Parser(prog="wdro", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("transport", parents=[shared])
    p.add_argument("--q", required=True, help="first distribution (JSON or CSV)")
    p.add_argument("--qp", required=True, help="second distribution (JSON or CSV)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--norm", default=None, help="ground norm descriptor (JSON)")

    p = sub.add_parser("wc-risk", parents=[shared])
    p.add_argument("--samples", required=True, help="distribution (JSON or CSV)")
    p.add_argument("--loss", required=True, help="loss descriptor (JSON)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--norm", default=None)
    p.add_argument("--support", default=None)

    p = sub.add_parser("gelbrich", parents=[shared])
    p.add_argument("--moments", required=True, help="moment pair (JSON)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--other", default=None, help="second moment pair: distance mode")
    mode.add_argument("--loss", default=None, help="quadratic loss: worst-case risk mode")
    p.add_argument("--eps", type=float, default=None)

    p = sub.add_parser("shrink", parents=[shared])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", default=None, help="samples (CSV)")
    source.add_argument("--moments", default=None, help="moment pair (JSON)")
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("mmse", parents=[shared])
    p.add_argument("--moments", required=True, help="joint moment pair (JSON)")
    p.add_argument("--mx", type=int, required=True, help="size of the estimated block")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--iters", type=int, default=None)

    p = sub.add_parser("train", parents=[shared])
    p.add_argument("--input", required=True, help="samples with the label last (CSV)")
    p.add_argument("--loss", required=True, help="loss name")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p", type=float, default=None, help="ball order for regression")
    p.add_argument("--norm", default=None)
    p.add_argument("--standardize", action="store_true", default=None)

    p = sub.add_parser("calibrate", parents=[shared])
    p.add_argument("--mode", choices=("empirical", "moments"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--bound", type=float, default=None, help="tail moment bound")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--c1", type=float, default=None)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    return top


def _config_flags(argv: list[str]) -> list[str]:
    """The --config file's entries as flags: true is the bare flag, false and
    null are left out, and any other value is --key=value."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config", default=None)
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    return _load(path, "config file", _flags)


def _flags(obj: dict) -> list[str]:
    if "config" in obj:
        raise UsageError("'config' cannot be set from a config file")
    return [
        f"--{k}" if v is True else f"--{k}={v}" for k, v in obj.items() if v is not False and v is not None
    ]


def _require(opts: dict, names: list[str], command: str):
    missing = [n for n in names if opts.get(n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"{command}: missing required option(s) {flags}")


def parse_config(argv=None) -> RunConfig:
    """Parse flags plus an optional JSON config file into a validated run.

    The config file's entries go in as flags right after the command, so one
    parse types and checks them as it does the flags, and a flag given on
    the command line wins.  Every referenced file is read and every
    descriptor and radius is validated here, before any computation starts;
    failures, the library's input errors among them, raise UsageError.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _build_parser().parse_args(argv[:1] + _config_flags(argv[1:]) + argv[1:])
    command = args.command
    opts = {k: v for k, v in vars(args).items() if k not in ("command", "config")}

    tol_scale = opts.pop("tol")
    rel_tol = DEFAULT_TOL.rel_tol if tol_scale is None else tol_scale
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise UsageError("--tol must be finite and positive")
    tol = Tolerance(rel_tol=rel_tol)
    output = opts.pop("output")

    payload: dict = {}
    try:
        if opts.get("eps") is not None:
            if opts.get("other") is not None:
                raise UsageError("--eps does not apply to gelbrich distance mode (--other)")
            opts["eps"] = radius(opts["eps"], positive=command in ("gelbrich", "shrink"), name="--eps")
        if command == "transport":
            payload["q"] = _distribution(opts["q"])
            payload["qp"] = _distribution(opts["qp"])
            payload["norm"] = _load(opts["norm"], "norm", _norm) if opts["norm"] else None
            if not (opts["p"] >= 1.0 and math.isfinite(opts["p"])):
                raise UsageError("--p must be finite and >= 1")
        elif command == "wc-risk":
            payload["samples"] = _distribution(opts["samples"])
            payload["loss"] = _load(opts["loss"], "loss", _loss)
            payload["norm"] = _load(opts["norm"], "norm", _norm) if opts["norm"] else None
            payload["support"] = _load(opts["support"], "support", _support) if opts["support"] else None
            if isinstance(payload["loss"], QuadraticLoss):
                if opts["p"] != 2.0:
                    raise UsageError("quadratic losses need --p 2")
                if opts["norm"] or opts["support"]:
                    raise UsageError(
                        "quadratic losses use the Euclidean norm on the whole space; "
                        "--norm/--support do not apply"
                    )
            payload["ball"] = BallSpec(
                opts["eps"], opts["p"], norm=payload["norm"], support=payload["support"]
            )
        elif command == "gelbrich":
            payload["moments"] = _moments(opts["moments"])
            if opts["other"] is not None:
                payload["other"] = _moments(opts["other"])
            else:
                payload["loss"] = _load(opts["loss"], "loss", _loss)
                if not isinstance(payload["loss"], QuadraticLoss):
                    raise UsageError("gelbrich risk mode needs a quadratic loss descriptor")
                _require(opts, ["eps"], command)
        elif command == "shrink":
            if opts["input"] is not None:
                payload["moments"] = sample_moments(_read_csv(opts["input"]))
            else:
                payload["moments"] = _moments(opts["moments"])
        elif command == "mmse":
            pair = _moments(opts["moments"])
            payload["joint"] = JointMoments(opts["mx"], pair.dim - opts["mx"], pair.mu, pair.sigma)
            if opts["iters"] is not None and opts["iters"] < 1:
                raise UsageError("--iters must be at least 1")
        elif command == "train":
            data = _read_csv(opts["input"])
            if data.shape[1] < 2:
                raise UsageError(f"{opts['input']}: need at least one feature column plus a label")
            payload["X"], payload["y"] = data[:, :-1], data[:, -1]
            payload["loss"] = UnivariateLoss(opts["loss"], delta=opts["delta"])
            payload["norm"] = _load(opts["norm"], "norm", _norm) if opts["norm"] else None
        elif command == "calibrate":
            if opts["mode"] == "empirical":
                _require(opts, ["p", "alpha", "bound", "dim"], command)
                given = {k: opts[k] for k in ("c1", "c2") if opts[k] is not None}
                payload["model"] = TailModel(alpha=opts["alpha"], A=opts["bound"], m=opts["dim"], **given)
            else:
                given = {} if opts["c"] is None else {"c": opts["c"]}
                payload["model"] = MomentTailModel(**given)
    except UsageError:
        raise
    except (ToolkitError, ValueError) as exc:
        raise UsageError(str(exc)) from exc

    opts["tol"] = rel_tol
    return RunConfig(command, opts, payload, tol, output)


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (results, certificates).


def _run_transport(cfg: RunConfig):
    p = cfg.options["p"]
    q, qp = cfg.payload["q"], cfg.payload["qp"]
    norm = cfg.payload["norm"]
    res = wasserstein_p(q, qp, p, norm, cfg.tol)
    check = kr_verify(q, qp, norm, res.duals, p)
    return (
        {
            "distance": res.distance,
            "plan": res.plan.matrix,
            "phi": res.duals.phi,
            "psi": res.duals.psi,
        },
        {
            "duality_gap": abs(res.distance**p - check.dual_value),
            "marginal_error": res.plan.max_marginal_error(),
            "dual_feasibility": check.violation,
        },
    )


def _run_wc_risk(cfg: RunConfig):
    loss, samples = cfg.payload["loss"], cfg.payload["samples"]
    eps = cfg.options["eps"]
    certificates = {}
    if isinstance(loss, QuadraticLoss):
        value = wc_risk_quadratic(loss, samples, eps)
        path = "scalar_dual" if eps > 0.0 else "closed_form"
    else:
        ball = cfg.payload["ball"]
        value, path, cells = _wc_pwa(loss, samples, ball)
        if cells is not None:
            # the extremal's expected loss and F at the multiplier bracket the value
            certificates["upper_bound"] = cells.upper
            rep = _type1_extremal(loss, samples, ball, cells)
            if rep.kind == "attained":
                dist = rep.distribution
                certificates["lower_bound"] = expected_loss(loss, dist)
                # the cost of the coupling that moved each atom's mass from
                # its source sample bounds W1; fsum rounds its sum once
                moves = norm_eval(ball.norm, dist.atoms - samples.atoms[rep.sources])
                certificates["budget_residual"] = math.fsum(dist.weights * moves) - eps
    nominal = expected_loss(loss, samples)
    certificates["robustness_margin"] = value - nominal
    return {"value": value, "nominal_risk": nominal, "path": path}, certificates


def _run_gelbrich(cfg: RunConfig):
    center = cfg.payload["moments"]
    if "other" in cfg.payload:
        return {"distance": gelbrich_distance(center, cfg.payload["other"])}, {}
    eps = cfg.options["eps"]
    res = gelbrich_risk_quadratic(cfg.payload["loss"], center, eps)
    dist = gelbrich_distance(center, res.extremal)
    certs = {
        "dual_gap": abs(res.value - res.primal_value) if res.interior else 0.0,
        "boundary_residual": abs(dist - eps) if res.interior else max(dist - eps, 0.0),
    }
    return (
        {
            "value": res.value,
            "gamma_star": res.gamma_star,
            "interior": res.interior,
            "extremal_mean": res.extremal.mu,
            "extremal_cov": res.extremal.sigma,
            "regularization": res.regularization,
        },
        certs,
    )


def _run_shrink(cfg: RunConfig):
    eps = cfg.options["eps"]
    res = wasserstein_shrinkage(cfg.payload["moments"], eps)
    lam = res.eigen_map[:, 0]
    residual = abs(_eq51(res.gamma_star, lam, eps, lam.size))
    return (
        {
            "mean": res.mean,
            "precision": res.precision,
            "gamma_star": res.gamma_star,
            "eigen_map": res.eigen_map.tolist(),
        },
        {"equation_residual": residual},
    )


def _run_mmse(cfg: RunConfig):
    joint = cfg.payload["joint"]
    eps = cfg.options["eps"]
    iters = cfg.options["iters"] if cfg.options["iters"] is not None else 200
    res = fw_solve(joint, eps, iters=iters, tol=cfg.tol)
    zero = np.zeros(joint.cov.shape[0])
    lifted = joint.cov + res.regularization * np.eye(zero.size)
    dist = gelbrich_distance(MomentPair(zero, res.S), MomentPair(zero, lifted))
    return (
        {
            "gain": res.estimator.gain,
            "offset": res.estimator.offset,
            "worst_case_mse": mmse_objective(res.S, joint.mx),
            "gap_history": res.gaps,
            "regularization": res.regularization,
        },
        {
            "final_gap": res.gaps[-1] if res.gaps else 0.0,
            "target_met": res.target_met,
            "feasibility_residual": max(dist - eps, 0.0),
        },
    )


def _run_train(cfg: RunConfig):
    X, y, loss = cfg.payload["X"], cfg.payload["y"], cfg.payload["loss"]
    eps = cfg.options["eps"]
    norm = cfg.payload["norm"]
    results: dict = {"standardized": bool(cfg.options["standardize"])}
    if cfg.options["standardize"]:
        means = X.mean(axis=0)
        scales = X.std(axis=0)
        scales[scales == 0.0] = 1.0
        X = (X - means) / scales
        results["feature_means"] = means
        results["feature_scales"] = scales
    if loss.is_classification:
        model = dro_train_classifier(X, y, loss, eps, input_norm=norm, tol=cfg.tol)
    else:
        p = cfg.options["p"] if cfg.options["p"] is not None else (
            2.0 if loss.kind == "squared" else 1.0
        )
        model = dro_train_regressor(X, y, loss, eps, p, input_norm=norm, tol=cfg.tol)
    results.update(
        {
            "weights": model.weights,
            "value": model.value,
            "iterations": model.iterations,
            "stages": model.stages,
            "finish": model.finish,
            "unattained": model.unattained,
            "degenerate_data": model.degenerate_data,
        }
    )
    certs: dict = {
        "solver_gap": model.gap,
        "dual_value": model.dual_value,
        "target_met": model.target_met,
    }
    try:
        loss.pieces()
    except ToolkitError:
        certs["crosscheck_diff"] = None
    else:
        _, _, diff = dro_objective_crosscheck(model, X, y, loss, eps, norm)
        certs["crosscheck_diff"] = diff
    return results, certs


def _run_calibrate(cfg: RunConfig):
    n, eta = cfg.options["n"], cfg.options["eta"]
    model = cfg.payload["model"]
    if cfg.options["mode"] == "empirical":
        radius = radius_empirical(model, n, eta, cfg.options["p"])
        threshold = math.log(model.c1 / eta) / model.c2
        results = {
            "radius": radius,
            "branch": "large_sample" if n >= threshold else "small_sample",
            "sample_threshold": threshold,
        }
    else:
        results = {"radius": radius_moments(model, n, eta)}
    return results, {}


_DISPATCH = {
    "transport": _run_transport,
    "wc-risk": _run_wc_risk,
    "gelbrich": _run_gelbrich,
    "shrink": _run_shrink,
    "mmse": _run_mmse,
    "train": _run_train,
    "calibrate": _run_calibrate,
}


# ---------------------------------------------------------------------------
# Report plumbing.


def _jsonify(value):
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)) and not isinstance(value, bool):
        return int(value)
    return value


def _write_report(report: dict, output: str | None):
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def run(cfg: RunConfig) -> int:
    """Execute a validated run and write the report; returns the exit code."""
    start = time.perf_counter()
    report = {
        "command": cfg.command,
        "config": dict(cfg.options, output=cfg.output),
        "results": {},
        "certificates": {},
        "version": __version__,
        "error": None,
    }
    code = 0
    try:
        results, certificates = _DISPATCH[cfg.command](cfg)
        report["results"] = results
        report["certificates"] = certificates
    except (ToolkitError, ValueError, np.linalg.LinAlgError) as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = 1
    report["timings"] = {"total_seconds": time.perf_counter() - start}
    _write_report(report, cfg.output)
    return code


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
