"""Workload ``library``: every public library path in one interleaved pass.

One pass is the union of three op sets, each defined with its checks in its
own module, interleaved so that every kind and size spreads over the whole
pass (167 ops):

* ``wl_transport``: 72 ``wasserstein_p`` calls on a 6..40 size ladder; the
  dense simplex and pairwise cost assembly carry them;
* ``wl_worst_case``: 24 worst-case and extremal LPs on box supports (another
  LP shape for the same simplex) and 36 closed forms that bypass the LP;
* ``wl_estimators``: 35 trainings, Frank-Wolfe, shrinkage and ``cv_radius``
  calls, which run no LP; ``numerics`` and the per-sample loss loops carry them.

Every answer is checked by the module that defines its op.  The run prints
the median latency of each op kind, so a change to one path shows there even
when the end-to-end metrics mix all of them.
"""

from __future__ import annotations

import wl_estimators
import wl_transport
import wl_worst_case
from harness import Op, spread

PARTS = {"transport": wl_transport, "worst-case": wl_worst_case, "estimators": wl_estimators}


def make_ops(seed: int, tiny: bool = False, work_dir=None) -> list[Op]:
    return spread([
        Op(inner.kind, f"{name}: {inner.label}", {"part": name, "op": inner})
        for name, module in PARTS.items()
        for inner in module.make_ops(seed, tiny)
    ])


def _part(op: Op):
    return PARTS[op.inputs["part"]], op.inputs["op"]


def run(op: Op, tracer=None):
    module, inner = _part(op)
    return module.run(inner, tracer)


def check(op: Op, answer) -> str | None:
    module, inner = _part(op)
    return module.check(inner, answer)


def fingerprint(op: Op, answer) -> bytes:
    module, inner = _part(op)
    return module.fingerprint(inner, answer)


def corrupt(op: Op, answer):
    module, inner = _part(op)
    return module.corrupt(inner, answer)


def max_train_suboptimality(ops, records) -> float:
    """Worst relative excess of a training objective over its independent optimum."""
    excess = [
        wl_estimators.suboptimality(ops[r.op_index].inputs["op"], r.answer)
        for r in records
        if r.error is None and ops[r.op_index].kind == "train"
    ]
    return max(excess, default=0.0)
