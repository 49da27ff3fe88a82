"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

For every workload it checks that each op runs and passes its independent
check, that a deliberately corrupted answer (perturbed value, or potentials
shifted by +1) counts as a failure, also when it follows a verified answer
of the same op, and that a traced pass runs the same ops with the same
answers as an untraced one.  It also checks that tracing survives a wrapped
name that has left its module and restores every binding, and that the
transport checker catches the known small-scale defect.  Exits 0 when every
check holds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREAD_VARS, ROOT


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "wdro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'wdro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    import harness
    import tracer as tracing

    problems = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        for workload in harness.WORKLOADS:
            wl = harness.load(workload)
            ops = wl.make_ops(7, tiny=True, work_dir=work)
            plain, _, _ = harness.timed_passes(wl, ops, 0.0, 0, max_passes=1)
            failures = harness.verify(wl, ops, plain)
            expect(not failures, f"{workload}: all {len(ops)} ops pass their checks {failures[:1]}")

            missed = []
            for rec in plain:
                bad = harness.Record(rec.op_index, rec.latency_s, wl.corrupt(ops[rec.op_index], rec.answer), None)
                if len(harness.verify(wl, ops, [bad])) != 1 or len(harness.verify(wl, ops, [rec, bad])) != 1:
                    missed.append(ops[rec.op_index].label)
            expect(not missed, f"{workload}: every corrupted answer counts as a failure {missed[:3]}")

            tr = tracing.Tracer()
            tr.install()
            try:
                traced, _, _ = harness.timed_passes(wl, ops, 0.0, 0, max_passes=1, tracer=tr)
            finally:
                tr.uninstall()
            expect(len(traced) == len(plain), f"{workload}: traced and untraced passes run {len(plain)} ops each")
            expect(not harness.verify(wl, ops, plain + traced), f"{workload}: traced answers equal untraced ones")
            expect(len(tr.spans) >= len(ops), f"{workload}: the traced pass recorded {len(tr.spans)} spans")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it

    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracing.TARGETS}
    tr = tracing.Tracer()
    tr.install(tracing.TARGETS + (("wdro.transport", "no_such_name", "transport.no_such_name", None, None),))
    tr.uninstall()
    expect(tr.absent == ["wdro.transport.no_such_name"], "a wrapped name that left its module is reported absent")
    restored = all(getattr(importlib.import_module(m), a) is f for (m, a), f in originals.items())
    expect(restored, "uninstall restores every wrapped binding")

    import wl_transport

    probe = wl_transport.make_probe_ops(7)
    records, _, _ = harness.timed_passes(wl_transport, probe, 0.0, 0, max_passes=1)
    expect(len(harness.verify(wl_transport, probe, records)) > 0, "the transport checks catch the small-scale defect")

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
