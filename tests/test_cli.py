import itertools
import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from wdro import __version__
from wdro.cli import main, parse_config
from wdro.empirical_risk import QuadraticLoss
from wdro.errors import UsageError
from wdro.moment_risk import gelbrich_risk_quadratic
from wdro.transport import DiscreteDistribution, MomentPair, gelbrich_distance, wasserstein_p

from test_empirical_risk_oracles import dual_lp_value

SCHEMA = json.loads(resources.files("wdro").joinpath("report.schema.json").read_text())


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_csv(path, rows, header=None):
    cols = len(rows[0])
    lines = [",".join(header or [f"c{i}" for i in range(cols)])]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report


def test_parse_config_shrink_example(tmp_path):
    cov = write_csv(tmp_path / "cov.csv", [[0.1, 1.0], [2.0, 0.3], [1.1, -0.4]])
    cfg = parse_config(["shrink", "--input", cov, "--eps", "0.5"])
    assert cfg.command == "shrink"
    assert cfg.options["eps"] == 0.5
    assert cfg.payload["moments"].dim == 2


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    cov = write_csv(tmp_path / "cov.csv", [[0.1], [2.0]])
    assert main(["shrink", "--input", cov]) == 2
    assert "eps" in capsys.readouterr().err
    with pytest.raises(UsageError):
        parse_config(["shrink", "--input", cov])


def test_flags_override_config_file(tmp_path):
    cov = write_csv(tmp_path / "cov.csv", [[0.1], [2.0], [0.7]])
    conf = write_json(tmp_path / "run.json", {"eps": 1.0, "input": cov})
    cfg = parse_config(["shrink", "--config", conf, "--eps", "0.5"])
    assert cfg.options["eps"] == 0.5
    cfg = parse_config(["shrink", "--config", conf])
    assert cfg.options["eps"] == 1.0
    bad = write_json(tmp_path / "bad.json", {"epz": 1.0})
    with pytest.raises(UsageError):
        parse_config(["shrink", "--config", bad, "--input", cov, "--eps", "1"])


# (command, config-file entries, the same values typed as flags, exit code)
CONFIG_CASES = [
    ("wc-risk", {"eps": "0.3"}, ["--eps", "0.3"], 0),
    ("shrink", {"eps": "0.3"}, ["--eps", "0.3"], 0),
    ("wc-risk", {"norm": None, "eps": 0.3}, ["--eps", "0.3"], 0),
    ("wc-risk", {"eps": True}, ["--eps"], 2),
    ("wc-risk", {"ep": 0.3}, ["--ep", "0.3"], 2),
    ("mmse", {"mx": 1.7}, ["--mx", "1.7"], 2),
    ("train", {"standardize": True}, ["--standardize"], 0),
    ("train", {"standardize": False}, [], 0),
    ("train", {"standardize": "no"}, ["--standardize=no"], 2),
    ("calibrate", {"mode": "bogus"}, ["--mode", "bogus"], 2),
]


@pytest.mark.parametrize(
    "command,entries,flags,code",
    CONFIG_CASES,
    ids=["-".join([c] + [f"{k}={v}" for k, v in e.items()]) for c, e, _, _ in CONFIG_CASES],
)
def test_config_file_values_are_read_as_flags(tmp_path, capsys, command, entries, flags, code):
    """A config entry types, checks and echoes as its flag does: the same
    report, or the same usage error naming the option."""
    base = {
        "wc-risk": ["--samples", write_json(tmp_path / "s.json", {"atoms": [[0.0], [1.0]]}),
                    "--loss", write_json(tmp_path / "l.json", {"kind": "pwa", "slopes": [[0.0], [1.0]],
                                                               "intercepts": [0.0, -1.0]}),
                    "--p", "1"],
        "mmse": ["--moments", write_json(tmp_path / "j.json", {"mean": [0.0, 0.0], "cov": [[1.0, 0.3], [0.3, 1.0]]}),
                 "--eps", "0.2"],
        "train": ["--input", write_csv(tmp_path / "d.csv", [[1.0, 1.0], [-0.5, -1.0]]), "--loss", "hinge",
                  "--eps", "0.5"],
        "calibrate": ["--n", "100", "--eta", "0.5"],
        "shrink": ["--input", write_csv(tmp_path / "s.csv", [[0.5, 1.0, 2.0], [-0.3, -1.0, 0.1]])],
    }[command]
    conf = write_json(tmp_path / "conf.json", entries)
    via_config = run_cli([command, "--config", conf] + base, tmp_path, "config.json")
    err = capsys.readouterr().err
    via_flags = run_cli([command] + base + flags, tmp_path, "flags.json")
    assert via_config[0] == via_flags[0] == code, (via_config[0], via_flags[0], err)
    if code == 0:
        for _, report in (via_config, via_flags):
            del report["timings"], report["config"]["output"]
        assert via_config[1] == via_flags[1]
    else:
        key = next(k for k, v in entries.items() if v is not None)
        assert f"--{key}" in err and f"--{key}" in capsys.readouterr().err, err


def test_seed_and_tol_validation(tmp_path):
    cov = write_csv(tmp_path / "cov.csv", [[0.1], [2.0]])
    # no command consumes randomness, so none takes a seed
    with pytest.raises(UsageError):
        parse_config(["shrink", "--input", cov, "--eps", "1", "--seed", "3"])
    for bad in ("0", "inf", "nan"):
        with pytest.raises(UsageError, match="--tol"):
            parse_config(["shrink", "--input", cov, "--eps", "1", "--tol", bad])
    cfg = parse_config(["shrink", "--input", cov, "--eps", "1"])
    assert cfg.options["tol"] == 1e-10
    cfg = parse_config(["shrink", "--input", cov, "--eps", "1", "--tol", "1e-6"])
    assert cfg.options["tol"] == 1e-6
    assert cfg.tol.rel_tol == 1e-6


def test_missing_file_and_bad_csv(tmp_path, capsys):
    assert main(["shrink", "--input", str(tmp_path / "gone.csv"), "--eps", "1"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,2.0\n1.0\n")
    assert main(["shrink", "--input", str(bad), "--eps", "1"]) == 2
    assert ":3:" in capsys.readouterr().err


# (command line, what the usage error must name); "{dir}" is the test's directory
BAD_INPUT_CASES = {
    "train-eps-inf": ("train --input {dir}/train.csv --loss hinge --eps inf", "--eps"),
    "train-eps-nan": ("train --input {dir}/train.csv --loss hinge --eps nan", "--eps"),
    "mmse-eps-nan": ("mmse --moments {dir}/joint.json --mx 1 --eps nan", "--eps"),
    "gelbrich-other-eps": ("gelbrich --moments {dir}/joint.json --other {dir}/joint.json --eps -5", "--eps"),
    "shrink-nan-csv": ("shrink --input {dir}/nan.csv --eps 0.3", "nan.csv:3:"),
    "transport-nan-csv": ("transport --q {dir}/nan.csv --qp {dir}/train.csv --p 1", "nan.csv:3:"),
    "wc-risk-nan-csv": ("wc-risk --samples {dir}/nan.csv --loss {dir}/loss.json --eps 0.1 --p 1", "nan.csv:3:"),
    "train-nan-csv": ("train --input {dir}/nan.csv --loss hinge --eps 0.1", "nan.csv:3:"),
}


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_bad_radius_or_nonfinite_csv_field_is_usage_error(tmp_path, capsys, case):
    """An infinite, NaN or unused radius and a non-finite CSV field stop the
    run before it starts, with exit 2 and no report."""
    write_csv(tmp_path / "train.csv", [[0.5, 1.0, 1.0], [-0.3, -1.0, -1.0], [1.2, 0.4, 1.0]])
    (tmp_path / "nan.csv").write_text("x0,x1,y\n0.5,1.0,1\n-0.3,nan,-1\n")
    write_json(tmp_path / "joint.json", {"mean": [1.0, -1.0], "cov": [[2.0, 0.8], [0.8, 1.5]]})
    write_json(tmp_path / "loss.json", {"kind": "pwa", "slopes": [[1.0, 0.0, 0.0]], "intercepts": [0.0]})
    line, named = BAD_INPUT_CASES[case]
    code, report = run_cli(line.format(dir=tmp_path).split(), tmp_path)
    assert (code, report) == (2, None)
    assert named in capsys.readouterr().err


def test_shrink_run_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(40, 3))
    csvp = write_csv(tmp_path / "cov.csv", samples.tolist())
    code, report = run_cli(["shrink", "--input", csvp, "--eps", "0.5"], tmp_path)
    assert code == 0
    assert report["error"] is None
    assert report["version"] == __version__
    # --tol is one relative accuracy, resolved to its default
    assert report["config"]["tol"] == 1e-10
    assert report["certificates"]["equation_residual"] <= 1e-10
    prec = np.array(report["results"]["precision"])
    assert prec.shape == (3, 3)
    assert np.allclose(prec, prec.T)
    assert len(report["results"]["eigen_map"]) == 3
    # two samples in three dimensions: a rank-one covariance, whose zero
    # eigenvalues map to gamma_star exactly
    csvp = write_csv(tmp_path / "two.csv", [[0.5, 1.0, 2.0], [-0.3, -1.0, 0.1]])
    code, report = run_cli(["shrink", "--input", csvp, "--eps", "0.3"], tmp_path)
    assert code == 0
    assert report["certificates"]["equation_residual"] <= 1e-10
    zero = [row for row in report["results"]["eigen_map"] if row[0] == 0.0]
    assert len(zero) == 2 and all(row[1] == report["results"]["gamma_star"] for row in zero), zero


def test_transport_run_matches_library(tmp_path):
    q = write_json(tmp_path / "q.json", {"atoms": [[0.0, 0.0], [1.0, 0.0]], "weights": [0.5, 0.5]})
    qp = write_json(tmp_path / "qp.json", {"atoms": [[0.0, 1.0]], "weights": [1.0]})
    code, report = run_cli(["transport", "--q", q, "--qp", qp, "--p", "2"], tmp_path)
    assert code == 0
    direct = wasserstein_p(
        DiscreteDistribution(np.array([[0.0, 0.0], [1.0, 0.0]])),
        DiscreteDistribution(np.array([[0.0, 1.0]])),
        2.0,
    )
    assert abs(report["results"]["distance"] - direct.distance) < 1e-12
    assert report["certificates"]["duality_gap"] <= 1e-8
    assert report["certificates"]["marginal_error"] <= 1e-10
    assert report["certificates"]["dual_feasibility"] <= 1e-10
    # a far atom of tiny mass beside near atoms that do not balance exactly:
    # Q' is 6 atoms whose weights are scaled by 1 - 0.3 / L, and an atom at
    # (L, 0) that takes the rest
    L = 1e10
    rng = np.random.default_rng([0, 7])
    X, a = rng.uniform(-1.0, 1.0, size=(6, 2)), rng.uniform(0.2, 1.0, 6)
    Y, b = rng.uniform(-1.0, 1.0, size=(6, 2)), rng.uniform(0.2, 1.0, 6)
    b *= (1.0 - 0.3 / L) / b.sum()
    weights = b.tolist() + [1.0 - b.sum()]
    q = write_json(tmp_path / "qnear.json", {"atoms": X.tolist(), "weights": (a / a.sum()).tolist()})
    qp = write_json(tmp_path / "qfar.json", {"atoms": Y.tolist() + [[L, 0.0]], "weights": weights})
    norm = write_json(tmp_path / "l1.json", {"kind": "p", "p": 1})
    code, report = run_cli(["transport", "--q", q, "--qp", qp, "--p", "1", "--norm", norm], tmp_path)
    assert code == 0
    psi, distance = report["results"]["psi"], report["results"]["distance"]
    # psi is pinned at the first heaviest atom; p = 1, so distance**p is the distance
    assert psi[weights.index(max(weights))] == 0.0, psi
    assert report["certificates"]["duality_gap"] <= 1e-12 * distance, report["certificates"]


def test_wc_risk_pwa_run(tmp_path):
    # Worst case of max(0, xi - 1) around a point mass at 0 grows linearly
    # in the radius for a type-1 ball on the whole line.
    samples = write_json(tmp_path / "s.json", {"atoms": [[0.0]]})
    loss = write_json(tmp_path / "l.json", {"kind": "pwa", "slopes": [[0.0], [1.0]], "intercepts": [0.0, -1.0]})
    for eps in (0.1, 0.5, 1.0, 3.0):
        code, report = run_cli(
            ["wc-risk", "--samples", samples, "--loss", loss, "--eps", repr(eps), "--p", "1"],
            tmp_path,
        )
        assert code == 0
        assert abs(report["results"]["value"] - eps) <= 1e-9
        assert abs(report["certificates"]["robustness_margin"] - eps) <= 1e-9


def test_wc_risk_cells_report_brackets_the_value(tmp_path):
    """A type-1 ball on a box under the 1- and the inf-norm, and on the box
    cut by x0 + x1 <= 2.2, which is no box, so its cells run as LPs: the
    value is the HiGHS optimum of the worst-case dual LP, and the report
    carries the extremal's expected loss and F at the multiplier around it,
    and the extremal's W1 distance to the samples."""
    rng = np.random.default_rng(13)
    atoms, A, b = rng.uniform(-1.0, 1.0, size=(7, 2)), rng.normal(size=(3, 2)), rng.normal(size=3)
    samples = write_json(tmp_path / "s.json", {"atoms": atoms.tolist()})
    loss = write_json(tmp_path / "l.json", {"kind": "pwa", "slopes": A.tolist(), "intercepts": b.tolist()})
    eps = 0.35
    box = np.vstack([np.eye(2), -np.eye(2)])
    square, cut = (box, np.full(4, 1.5)), (np.vstack([box, [1.0, 1.0]]), np.append(np.full(4, 1.5), 2.2))
    # the extreme points of the ground norm's unit ball: +-e_k for the
    # 1-norm, the corners of the square for the inf-norm
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=2)))
    for (C, d), p, V in [(square, 1.0, box), (square, "inf", corners), (cut, 1.0, box)]:
        norm = write_json(tmp_path / "norm.json", {"kind": "p", "p": p})
        support = write_json(tmp_path / "support.json", {"kind": "polyhedron", "C": C.tolist(), "d": d.tolist()})
        args = ["wc-risk", "--samples", samples, "--loss", loss, "--eps", repr(eps), "--p", "1",
                "--norm", norm, "--support", support]
        texts = []
        for _ in range(2):
            code, report = run_cli(args, tmp_path)
            assert code == 0
            texts.append(json.dumps(dict(report, timings={}), sort_keys=True))
        assert texts[0] == texts[1]
        results, certs = report["results"], report["certificates"]
        assert results["path"] == "cells"
        value = results["value"]
        ref = dual_lp_value(A, b, atoms, np.full(7, 1.0 / 7), eps, 1.0, C, d, V)
        assert abs(value - ref) <= 1e-8 * abs(ref), (len(C), p, value, ref)
        # the extremal's expected loss is the value up to the rounding of its sums
        rounding = 2.0**-50 * abs(value)
        assert certs["lower_bound"] - rounding <= value <= certs["upper_bound"] + rounding, (p, value, certs)
        slack = 1e-9 * abs(value)
        assert abs(certs["lower_bound"] - value) <= slack
        assert abs(certs["upper_bound"] - value) <= slack
        assert certs["budget_residual"] <= 1e-9 * eps
        assert abs(certs["robustness_margin"] - (value - results["nominal_risk"])) <= 1e-12


def test_wc_risk_cells_report_a_far_box(tmp_path):
    """A box far beyond the data: the value, its bounds and the W1 budget the
    extremal spends are all reported."""
    norm = write_json(tmp_path / "norm.json", {"kind": "p", "p": 1.0})
    for seed, half_width in [(0, 1e8), (11, 1e10)]:
        rng = np.random.default_rng([seed, 41])
        samples = write_json(tmp_path / "s.json", {"atoms": rng.uniform(-1.0, 1.0, size=(6, 2)).tolist()})
        loss = write_json(
            tmp_path / "l.json",
            {"kind": "pwa", "slopes": rng.normal(size=(3, 2)).tolist(), "intercepts": rng.normal(size=3).tolist()},
        )
        box = {"kind": "polyhedron", "C": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "d": [half_width] * 4}
        support = write_json(tmp_path / "box.json", box)
        code, report = run_cli(
            ["wc-risk", "--samples", samples, "--loss", loss, "--eps", "1e-6", "--p", "1",
             "--norm", norm, "--support", support],
            tmp_path,
        )
        assert code == 0 and report["error"] is None, (seed, half_width, report["error"])
        value, certs = report["results"]["value"], report["certificates"]
        assert abs(certs["lower_bound"] - value) <= 1e-9 * abs(value)
        assert abs(certs["upper_bound"] - value) <= 1e-9 * abs(value)
        assert certs["budget_residual"] <= 1e-9 * 1e-6


def test_wc_risk_budget_residual_is_the_extremal_couplings_cost(tmp_path):
    """Far boxes, 12 seeds x 5 half-widths x 2 radii: the residual of the
    coupling the extremal was built from stays within rounding of eps."""
    norm = write_json(tmp_path / "norm.json", {"kind": "p", "p": 1.0})
    for seed in range(12):
        rng = np.random.default_rng([seed, 41])
        samples = write_json(tmp_path / "s.json", {"atoms": rng.uniform(-1.0, 1.0, size=(6, 2)).tolist()})
        loss = write_json(
            tmp_path / "l.json",
            {"kind": "pwa", "slopes": rng.normal(size=(3, 2)).tolist(), "intercepts": rng.normal(size=3).tolist()},
        )
        for half_width, eps in itertools.product([1e4, 1e6, 1e8, 1e10, 1e12], [1e-6, 1e-2]):
            box = {"kind": "polyhedron", "C": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], "d": [half_width] * 4}
            support = write_json(tmp_path / "box.json", box)
            code, report = run_cli(
                ["wc-risk", "--samples", samples, "--loss", loss, "--eps", repr(eps), "--p", "1",
                 "--norm", norm, "--support", support],
                tmp_path,
            )
            assert code == 0 and report["results"]["path"] == "cells", (seed, half_width, eps)
            assert abs(report["certificates"]["budget_residual"]) <= 1e-15 * eps, (seed, half_width, eps, report)


def test_wc_risk_reports_its_path(tmp_path):
    samples = write_json(tmp_path / "s.json", {"atoms": [[0.0], [1.0]]})
    pwa = write_json(tmp_path / "l.json", {"kind": "pwa", "slopes": [[0.0], [1.0]], "intercepts": [0.0, -1.0]})
    quad = write_json(tmp_path / "q.json", {"kind": "quadratic", "Q": [[1.0]], "q": [0.0]})
    # x >= -5 leaves the steepest direction, +x, unbounded
    halfline = write_json(tmp_path / "h.json", {"kind": "polyhedron", "C": [[-1.0]], "d": [5.0]})
    for loss, p, extra, path in [
        (pwa, "1", [], "closed_form"),
        (pwa, "inf", [], "closed_form"),
        (pwa, "2", [], "scalar_dual"),
        (pwa, "1", ["--support", halfline], "cells"),
        (quad, "2", [], "scalar_dual"),
    ]:
        code, report = run_cli(
            ["wc-risk", "--samples", samples, "--loss", loss, "--eps", "0.5", "--p", p] + extra, tmp_path
        )
        assert code == 0 and report["results"]["path"] == path, (p, extra)
        # the line and the half-line let mass escape: no attained extremal, so
        # no lower bound
        assert ("lower_bound" in report["certificates"]) is False
    # the input picks the path: no option forces one
    assert main(["wc-risk", "--samples", samples, "--loss", pwa, "--eps", "0.5", "--p", "1", "--method", "lp"]) == 2


def test_wc_risk_polyhedron_type2_fails_with_partial_report(tmp_path):
    samples = write_json(tmp_path / "s.json", {"atoms": [[0.0]]})
    loss = write_json(tmp_path / "l.json", {"kind": "pwa", "slopes": [[1.0]], "intercepts": [0.0]})
    support = write_json(tmp_path / "sup.json", {"kind": "polyhedron", "C": [[1.0]], "d": [2.0]})
    code, report = run_cli(
        [
            "wc-risk", "--samples", samples, "--loss", loss,
            "--eps", "0.5", "--p", "2", "--support", support,
        ],
        tmp_path,
    )
    assert code == 1
    assert report["error"]["type"] == "UnsupportedCombination"
    assert report["results"] == {}


def test_wc_risk_quadratic_run_and_flag_rules(tmp_path, capsys):
    samples = write_json(tmp_path / "s.json", {"atoms": [[0.0]]})
    loss = write_json(tmp_path / "l.json", {"kind": "quadratic", "Q": [[1.0]], "q": [0.0]})
    code, report = run_cli(
        ["wc-risk", "--samples", samples, "--loss", loss, "--eps", "0.5", "--p", "2"], tmp_path
    )
    assert code == 0
    assert abs(report["results"]["value"] - 0.25) <= 1e-9
    assert main(["wc-risk", "--samples", samples, "--loss", loss, "--eps", "0.5", "--p", "1"]) == 2
    capsys.readouterr()
    # the Gelbrich worst case at the samples' moments, diag(0.15, 0.24), is
    # the same number: both duals take their multiplier from one spectral step
    X, w = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]), np.array([0.3, 0.3, 0.4])
    samples = write_json(tmp_path / "s3.json", {"atoms": X.tolist(), "weights": w.tolist()})
    loss = write_json(tmp_path / "l2.json", {"kind": "quadratic", "Q": [[1.0, 0.2], [0.2, -0.5]], "q": [0.5, -0.5]})
    code, wc = run_cli(["wc-risk", "--samples", samples, "--loss", loss, "--eps", "0.3", "--p", "2"], tmp_path)
    assert code == 0 and wc["results"]["path"] == "scalar_dual", wc["results"]
    value = wc["results"]["value"]
    assert abs(value - 1.2279388026482654) <= 1e-12 * 1.2279388026482654, value
    mean = w @ X
    cov = (X - mean).T @ ((X - mean) * w[:, None])
    moments = write_json(tmp_path / "m3.json", {"mean": mean.tolist(), "cov": cov.tolist()})
    code, report = run_cli(["gelbrich", "--moments", moments, "--loss", loss, "--eps", "0.3"], tmp_path)
    assert code == 0 and report["results"]["regularization"] == 0.0, report["results"]
    assert abs(report["results"]["value"] - value) <= 1e-12 * abs(value), (report["results"], value)


def test_gelbrich_risk_and_distance_modes(tmp_path):
    center = write_json(tmp_path / "m.json", {"mean": [0.0], "cov": [[1.0]]})
    loss = write_json(tmp_path / "l.json", {"kind": "quadratic", "Q": [[1.0]], "q": [0.0]})
    code, report = run_cli(
        ["gelbrich", "--moments", center, "--loss", loss, "--eps", "0.5"], tmp_path
    )
    assert code == 0
    assert abs(report["results"]["value"] - 2.25) <= 1e-8
    assert report["certificates"]["boundary_residual"] <= 1e-6
    assert report["certificates"]["dual_gap"] <= 1e-6

    other = write_json(tmp_path / "o.json", {"mean": [3.0], "cov": [[4.0]]})
    code, report = run_cli(["gelbrich", "--moments", center, "--other", other], tmp_path)
    assert code == 0
    want = gelbrich_distance(
        MomentPair(np.array([0.0]), np.array([[1.0]])),
        MomentPair(np.array([3.0]), np.array([[4.0]])),
    )
    assert abs(report["results"]["distance"] - want) < 1e-12
    # Exactly one of the two modes must be selected.
    assert main(["gelbrich", "--moments", center]) == 2
    assert (
        main(["gelbrich", "--moments", center, "--other", other, "--loss", loss, "--eps", "1"])
        == 2
    )


def test_mmse_run(tmp_path):
    joint = write_json(
        tmp_path / "j.json",
        {"mean": [1.0, -1.0], "cov": [[2.0, 0.8], [0.8, 1.5]]},
    )
    code, report = run_cli(
        ["mmse", "--moments", joint, "--mx", "1", "--eps", "0.25", "--iters", "300"], tmp_path
    )
    assert code == 0
    assert report["certificates"]["final_gap"] <= 1e-4
    assert report["certificates"]["feasibility_residual"] <= 1e-6
    assert report["results"]["worst_case_mse"] > 0
    assert len(report["results"]["gap_history"]) <= 300
    assert report["certificates"]["target_met"] is True
    assert main(["mmse", "--moments", joint, "--mx", "2", "--eps", "0.25"]) == 2
    # Frank-Wolfe stops at its gap target, 1e-10 times the trace of the nominal
    cov = [[2.0, 0.8, 0.1], [0.8, 1.5, 0.3], [0.1, 0.3, 1.1]]
    joint = write_json(tmp_path / "j3.json", {"mean": [1.0, -1.0, 0.5], "cov": cov})
    code, report = run_cli(["mmse", "--moments", joint, "--mx", "1", "--eps", "0.2"], tmp_path)
    certs = report["certificates"]
    assert code == 0 and certs["target_met"] is True, certs
    assert certs["final_gap"] <= 1e-10 * np.trace(cov), certs
    assert certs["feasibility_residual"] == 0.0, certs


def test_mmse_feasibility_residual_at_small_radii(tmp_path):
    # seeded 4 x 4 joints: the extremal lies on the ball's edge, and the
    # difference of traces once read it up to 40% of eps outside at eps
    # 1e-7; the residual is now 0 or at most 1e-9 eps
    for seed in range(4):
        B = np.random.default_rng(seed).normal(size=(4, 4))
        cov = (B @ B.T / 4 + 0.5 * np.eye(4)).tolist()
        joint = write_json(tmp_path / f"j{seed}.json", {"mean": [0.0] * 4, "cov": cov})
        for eps in ("1e-2", "1e-4", "1e-6", "1e-7"):
            code, report = run_cli(["mmse", "--moments", joint, "--mx", "2", "--eps", eps], tmp_path)
            certs = report["certificates"]
            assert code == 0 and certs["target_met"] is True, (seed, eps, certs)
            assert certs["feasibility_residual"] <= 1e-9 * float(eps), (seed, eps, certs)


def test_mmse_report_says_when_the_gap_target_was_missed(tmp_path):
    # a rank-deficient joint covariance: Frank-Wolfe zigzags near a face and
    # uses all 200 default iterations with the gap far above its target
    joint = write_json(
        tmp_path / "j.json",
        {"mean": [0.0, 0.0, 0.0], "cov": [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    )
    code, report = run_cli(["mmse", "--moments", joint, "--mx", "1", "--eps", "0.2"], tmp_path)
    assert code == 0
    certs = report["certificates"]
    assert report["results"]["regularization"] > 0.0
    assert len(report["results"]["gap_history"]) == 200
    assert certs["target_met"] is False
    assert certs["final_gap"] > 1e-10 * 3.0


def test_train_run_with_crosscheck_certificate(tmp_path):
    data = write_csv(tmp_path / "d.csv", [[1.0, 1.0]], header=["x", "y"])
    code, report = run_cli(
        ["train", "--input", data, "--loss", "hinge", "--eps", "0.5"], tmp_path
    )
    assert code == 0
    assert abs(report["results"]["value"] - 0.5) <= 1e-6
    assert abs(report["results"]["weights"][0] - 1.0) <= 1e-4
    assert report["results"]["degenerate_data"] is True
    assert report["certificates"]["crosscheck_diff"] <= 1e-6
    assert report["results"]["standardized"] is False
    # the certified gap is the distance from the dual value to the objective
    certs = report["certificates"]
    assert certs["dual_value"] <= 0.5 <= report["results"]["value"]
    assert certs["solver_gap"] == report["results"]["value"] - certs["dual_value"]
    assert certs["solver_gap"] <= 1e-8
    assert certs["target_met"] is True


def test_train_standardize_and_smooth_loss(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.normal(2.0, 3.0, size=(30, 2))
    y = np.sign(X[:, 0] - 2.0 + 0.1 * rng.normal(size=30))
    y[y == 0] = 1.0
    rows = np.column_stack([X, y])
    data = write_csv(tmp_path / "d.csv", rows.tolist())
    code, report = run_cli(
        ["train", "--input", data, "--loss", "smooth_hinge", "--eps", "0.05", "--standardize"],
        tmp_path,
    )
    assert code == 0
    assert report["results"]["standardized"] is True
    assert len(report["results"]["feature_means"]) == 2
    # No finite-difference certificate exists for smooth losses.
    assert report["certificates"]["crosscheck_diff"] is None


def test_train_regression_run(tmp_path):
    data = write_csv(tmp_path / "d.csv", [[0.0, 1.0], [1.0, 3.0], [2.0, 5.0]])
    code, report = run_cli(
        ["train", "--input", data, "--loss", "pinball", "--delta", "0.5", "--eps", "0.1"],
        tmp_path,
    )
    assert code == 0
    assert report["certificates"]["crosscheck_diff"] <= 1e-6
    # Unknown loss names are rejected before compute.
    assert main(["train", "--input", data, "--loss", "absolute", "--eps", "0.1"]) == 2


def test_train_report_says_how_training_finished(tmp_path):
    rows = [[0.5, 1.0, 1.2], [-0.3, -1.0, -0.7], [1.2, 0.4, 2.0], [0.1, -0.6, 0.3], [0.7, -0.2, 0.9], [-0.9, 0.3, -1.4]]
    data = write_csv(tmp_path / "d.csv", rows)
    norm = write_json(tmp_path / "l1.json", {"kind": "p", "p": 1})
    args = ["train", "--input", data, "--loss", "pinball", "--delta", "0.3", "--p", "1", "--eps", "0.2"]
    # a 1-norm input ball makes pinball training a linear program
    code, report = run_cli(args + ["--norm", norm], tmp_path)
    assert code == 0
    assert report["results"]["finish"] == "active_pieces"
    assert report["results"]["stages"] >= 3
    assert report["certificates"]["solver_gap"] <= 1e-12 * report["results"]["value"]
    # it meets its gap target, and its value agrees with the worst-case risk
    # priced at the trained weights
    assert report["certificates"]["target_met"] is True
    assert abs(report["certificates"]["crosscheck_diff"]) <= 1e-9, report["certificates"]
    # the default 2-norm ball keeps the smoothing to the end
    code, report = run_cli(args, tmp_path)
    assert code == 0
    assert report["results"]["finish"] == "smoothing"
    assert report["certificates"]["target_met"] is True
    # completely separated samples: unpenalized logloss has no minimizer, and
    # training stops after its first stage with an honest miss
    data = write_csv(tmp_path / "sep.csv", [[1.0, 0.5, 1.0], [2.0, -0.3, 1.0], [-1.0, 0.2, -1.0], [-1.5, -0.8, -1.0]])
    code, report = run_cli(["train", "--input", data, "--loss", "logloss", "--eps", "0"], tmp_path)
    assert code == 0
    assert report["results"]["unattained"] is True
    assert report["results"]["iterations"] <= 60, report["results"]
    assert report["certificates"]["target_met"] is False


def test_calibrate_runs_and_p_equals_half_dim_fails(tmp_path, capsys):
    code, report = run_cli(
        [
            "calibrate", "--mode", "empirical", "--n", "100", "--eta", "0.5",
            "--p", "1", "--alpha", "3", "--bound", "1", "--dim", "4",
            "--c1", "2", "--c2", "1",
        ],
        tmp_path,
    )
    assert code == 0
    assert abs(report["results"]["radius"] - (math.log(4.0) / 100.0) ** 0.25) <= 1e-12
    assert report["results"]["branch"] == "large_sample"
    # the default c1 = e and c2 = 1, and p = 1 < dim / 2
    code, report = run_cli(
        ["calibrate", "--mode", "empirical", "--n", "100", "--eta", "0.05", "--p", "1", "--alpha", "2",
         "--bound", "1", "--dim", "3"],
        tmp_path,
    )
    assert code == 0 and report["results"]["branch"] == "large_sample"
    want = (math.log(math.e / 0.05) / 100.0) ** (1.0 / 3.0)
    assert abs(report["results"]["radius"] - want) <= 1e-12 * want, (report["results"]["radius"], want)

    code, report = run_cli(
        ["calibrate", "--mode", "moments", "--n", "100", "--eta", "0.5", "--c", "2"], tmp_path
    )
    assert code == 0
    assert abs(report["results"]["radius"] - math.log(4.0) / 10.0) <= 1e-15

    code, report = run_cli(
        [
            "calibrate", "--mode", "empirical", "--n", "100", "--eta", "0.5",
            "--p", "2", "--alpha", "3", "--bound", "1", "--dim", "4",
        ],
        tmp_path,
    )
    assert code == 1
    assert report["error"]["type"] == "UnsupportedCase"
    capsys.readouterr()


def test_report_written_to_stdout_by_default(tmp_path, capsys):
    csvp = write_csv(tmp_path / "cov.csv", [[0.1], [0.9], [0.4]])
    assert main(["shrink", "--input", csvp, "--eps", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == "shrink"


def test_gelbrich_report_matches_library_values(tmp_path):
    # the second center is rank-deficient: it is lifted off singularity, and
    # the extremal still lies on the ball's boundary
    for mean, cov, Q, q, eps in [
        ([0.5, -1.0], [[1.2, 0.2], [0.2, 0.8]], [[1.0, 0.0], [0.0, -2.0]], [0.3, 0.1], 0.7),
        ([0.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]], [0.5, -0.5], 0.5),
    ]:
        center = write_json(tmp_path / "m.json", {"mean": mean, "cov": cov})
        loss = write_json(tmp_path / "l.json", {"kind": "quadratic", "Q": Q, "q": q})
        code, report = run_cli(["gelbrich", "--moments", center, "--loss", loss, "--eps", repr(eps)], tmp_path)
        assert code == 0
        direct = gelbrich_risk_quadratic(
            QuadraticLoss(np.array(Q), np.array(q)), MomentPair(np.array(mean), np.array(cov)), eps
        )
        assert abs(report["results"]["value"] - direct.value) <= 1e-12
        assert report["results"]["interior"] == direct.interior
        assert report["certificates"]["dual_gap"] <= 1e-9, report["certificates"]
        assert report["certificates"]["boundary_residual"] <= 1e-8, report["certificates"]
    assert report["results"]["regularization"] > 0.0
