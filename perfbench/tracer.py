"""Spans and counters around calls into the wdro modules, recorded from outside.

In a traced pass ``Tracer.install`` replaces public names where the calling
module binds them (``wdro.transport.solve_lp``, ``wdro.empirical_risk.solve_lp``
and so on) with wrappers that record a span per call: name, start, end,
parent span and the op it belongs to.  Spans stay in memory until the run
ends.  No file of the program changes, and a name that has left its module
is reported as absent instead of breaking the run.  ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time


def _count_solve_lp(tracer, args, result):
    lp = args[0]
    tracer.add("simplex.pivots", result.iterations)
    tracer.add("simplex.lp_cells", lp.A.shape[0] * lp.A.shape[1])
    tracer.add("simplex.not_optimal", result.status != "optimal")


def _count_fw_solve(tracer, args, result):
    tracer.add("mmse.fw_iterations", len(result.gaps))


def _count_fw_direction(tracer, args, result):
    tracer.add("mmse.fw_repairs", bool(result.repaired))


def _count_subgradient(tracer, args, result):
    tracer.add("learn.solver_iterations", result.iterations)


def _count_evals(tracer, args, kwargs):
    """Count the objective and subgradient evaluations the solver makes."""
    fun, grad, *rest = args

    def counted_fun(w):
        tracer.add("learn.fun_evals", 1)
        return fun(w)

    def counted_grad(w):
        tracer.add("learn.grad_evals", 1)
        return grad(w)

    return (counted_fun, counted_grad, *rest), kwargs


# (module, bound name, span name, result hook, argument hook)
TARGETS = (
    ("wdro.transport", "wasserstein_p", "transport.wasserstein_p", None, None),
    ("wdro.transport", "solve_lp", "simplex.solve_lp", _count_solve_lp, None),
    ("wdro.transport", "norm_eval", "convex_analysis.norm_eval", None, None),
    ("wdro.empirical_risk", "wc_risk_pwa", "empirical_risk.wc_risk_pwa", None, None),
    ("wdro.empirical_risk", "extremal_pwa", "empirical_risk.extremal_pwa", None, None),
    ("wdro.empirical_risk", "wc_risk_quadratic", "empirical_risk.wc_risk_quadratic", None, None),
    ("wdro.empirical_risk", "extremal_quadratic", "empirical_risk.extremal_quadratic", None, None),
    ("wdro.empirical_risk", "solve_lp", "simplex.solve_lp", _count_solve_lp, None),
    ("wdro.empirical_risk", "norm_eval", "convex_analysis.norm_eval", None, None),
    ("wdro.empirical_risk", "dual_norm_eval", "convex_analysis.dual_norm_eval", None, None),
    ("wdro.empirical_risk", "bisect_root", "numerics.bisect_root", None, None),
    ("wdro.empirical_risk", "sym_eig", "numerics.sym_eig", None, None),
    ("wdro.moment_risk", "gelbrich_risk_quadratic", "moment_risk.gelbrich_risk_quadratic", None, None),
    ("wdro.moment_risk", "bisect_root", "numerics.bisect_root", None, None),
    ("wdro.moment_risk", "minimize_scalar_convex", "numerics.minimize_scalar_convex", None, None),
    ("wdro.moment_risk", "sym_eig", "numerics.sym_eig", None, None),
    ("wdro.shrinkage", "wasserstein_shrinkage", "shrinkage.wasserstein_shrinkage", None, None),
    ("wdro.shrinkage", "bisect_root", "numerics.bisect_root", None, None),
    ("wdro.shrinkage", "sym_eig", "numerics.sym_eig", None, None),
    ("wdro.mmse", "fw_solve", "mmse.fw_solve", _count_fw_solve, None),
    ("wdro.mmse", "fw_direction", "mmse.fw_direction", _count_fw_direction, None),
    ("wdro.mmse", "bisect_root", "numerics.bisect_root", None, None),
    ("wdro.mmse", "sym_eig", "numerics.sym_eig", None, None),
    ("wdro.learn", "dro_train_classifier", "learn.train", None, None),
    ("wdro.learn", "dro_train_regressor", "learn.train", None, None),
    ("wdro.learn", "subgradient_minimize", "numerics.subgradient_minimize", _count_subgradient, _count_evals),
    ("wdro.learn", "norm_eval", "convex_analysis.norm_eval", None, None),
    ("wdro.numerics", "minimize_scalar_convex", "numerics.minimize_scalar_convex", None, None),
    ("wdro.numerics", "sym_eig", "numerics.sym_eig", None, None),
    ("wdro.calibrate", "cv_radius", "calibrate.cv_radius", None, None),
)

NAME, START, END, PARENT, OP, OUTER = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id, outermost of its name]
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: collections.Counter = collections.Counter()
        self._op_id = None
        self._patched: list[tuple] = []

    def add(self, counter: str, value) -> None:
        self.counters[counter] += value

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id, self._open[name] == 0])
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[index][NAME]] -= 1

    @contextlib.contextmanager
    def span(self, name: str, op_id=None):
        if op_id is not None:
            self._op_id = op_id
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def wrap_fn(self, fn, name: str, on_result=None, on_args=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(self, args, kwargs)
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name, on_result, on_args in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap_fn(original, name, on_result, on_args))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def span_totals(tracer: Tracer):
    """Per span name: calls, busy seconds and self seconds.

    Busy time sums the outermost span of each name, so recursion is not
    counted twice; self time subtracts the time covered by direct children.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls = collections.Counter()
    busy = collections.Counter()
    own = collections.Counter()
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        if s[OUTER]:
            busy[s[NAME]] += s[END] - s[START]
            own[s[NAME]] += s[END] - s[START] - child_time[i]
    return calls, busy, own


def lp_path_calls(tracer: Tracer) -> int:
    """Worst-case entry-point spans that contain at least one solve_lp span."""
    spans = tracer.spans
    owners = set()
    for s in spans:
        if s[NAME] != "simplex.solve_lp":
            continue
        parent = s[PARENT]
        while parent >= 0 and not spans[parent][NAME].startswith("empirical_risk."):
            parent = spans[parent][PARENT]
        if parent >= 0:
            owners.add(parent)
    return len(owners)


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced pass as name -> (value, unit)."""
    calls, busy, own = span_totals(tracer)
    c = tracer.counters
    evals = c["learn.fun_evals"] + c["learn.grad_evals"]
    commands = c["cli.commands"]
    out = {
        "transport.wasserstein_p.calls": (calls["transport.wasserstein_p"], "count"),
        "transport.wasserstein_p.busy_s": (busy["transport.wasserstein_p"], "s"),
        "transport.wasserstein_p.self_s": (own["transport.wasserstein_p"], "s"),
        "simplex.solve_lp.calls": (calls["simplex.solve_lp"], "count"),
        "simplex.solve_lp.busy_s": (busy["simplex.solve_lp"], "s"),
        "simplex.pivots": (c["simplex.pivots"], "count"),
        "simplex.us_per_pivot": (_ratio(busy["simplex.solve_lp"], c["simplex.pivots"], 1e6), "us"),
        "simplex.lp_cells": (c["simplex.lp_cells"], "count"),
        "simplex.not_optimal": (c["simplex.not_optimal"], "count"),
        "convex_analysis.norm_eval.calls": (calls["convex_analysis.norm_eval"], "count"),
        "convex_analysis.norm_eval.busy_s": (busy["convex_analysis.norm_eval"], "s"),
        "convex_analysis.dual_norm_eval.calls": (calls["convex_analysis.dual_norm_eval"], "count"),
    }
    for fn in ("wc_risk_pwa", "extremal_pwa"):
        out[f"empirical_risk.{fn}.busy_s"] = (busy[f"empirical_risk.{fn}"], "s")
        out[f"empirical_risk.{fn}.self_s"] = (own[f"empirical_risk.{fn}"], "s")
    for fn in ("wc_risk_quadratic", "extremal_quadratic"):
        out[f"empirical_risk.{fn}.busy_s"] = (busy[f"empirical_risk.{fn}"], "s")
    out["empirical_risk.lp_path.calls"] = (lp_path_calls(tracer), "count")
    for name in ("moment_risk.gelbrich_risk_quadratic", "shrinkage.wasserstein_shrinkage"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.busy_s"] = (busy[name], "s")
    out.update({
        "mmse.fw_solve.busy_s": (busy["mmse.fw_solve"], "s"),
        "mmse.fw_iterations": (c["mmse.fw_iterations"], "count"),
        "mmse.fw_direction.calls": (calls["mmse.fw_direction"], "count"),
        "mmse.fw_direction.busy_s": (busy["mmse.fw_direction"], "s"),
        "mmse.fw_repairs": (c["mmse.fw_repairs"], "count"),
        "mmse.ms_per_iteration": (_ratio(busy["mmse.fw_solve"], c["mmse.fw_iterations"], 1e3), "ms"),
        "learn.train.calls": (calls["learn.train"], "count"),
        "learn.train.busy_s": (busy["learn.train"], "s"),
        "learn.solver_iterations": (c["learn.solver_iterations"], "count"),
        "learn.fun_evals": (c["learn.fun_evals"], "count"),
        "learn.grad_evals": (c["learn.grad_evals"], "count"),
        "learn.us_per_eval": (_ratio(busy["numerics.subgradient_minimize"], evals, 1e6), "us"),
    })
    for fn in ("subgradient_minimize", "bisect_root", "sym_eig", "minimize_scalar_convex"):
        out[f"numerics.{fn}.calls"] = (calls[f"numerics.{fn}"], "count")
        out[f"numerics.{fn}.busy_s"] = (busy[f"numerics.{fn}"], "s")
    out.update({
        "calibrate.cv_radius.busy_s": (busy["calibrate.cv_radius"], "s"),
        "calibrate.cv_radius.self_s": (own["calibrate.cv_radius"], "s"),
        "calibrate.fits": (calls["calibrate.train_fn"], "count"),
        "cli.process_s": (_ratio(c["cli.process_s"], commands), "s"),
        "cli.compute_s": (_ratio(c["cli.compute_s"], commands), "s"),
        "cli.overhead_s": (_ratio(c["cli.process_s"] - c["cli.compute_s"], commands), "s"),
        "cli.import_s": (_ratio(c["cli.import_s"], commands), "s"),
        "cli.numpy_import_s": (_ratio(c["cli.numpy_import_s"], commands), "s"),
        "cli.report_bytes": (_ratio(c["cli.report_bytes"], commands), "bytes"),
    })
    return out
