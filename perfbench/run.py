"""Benchmark of the wdro toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload library --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/``.  Workloads: library and cli (see README.md next to this file).  Each is a closed loop with one client over a fixed
pass of ops whose inputs come from ``--seed``.

``--trace 0`` runs whole passes for about ``--seconds`` seconds (at least
100 ops) and reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass of the same ops and reports the per-layer
metrics.  Every answer is checked against an independent oracle after the
timed region.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the environment, failures and spans goes
to ``.perfbench-out/``.

Exit codes: 0 every answer passed its check, 1 some answer failed, 2 usage
error or no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("library", "cli")
# One BLAS thread: with two OpenBLAS threads on a 2-CPU machine, a 50x50
# eigendecomposition stalled for about 15 ms in bursts (p90 14.9 ms against 1.0 ms).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_PROBES = 8  # extra set-ups in fresh processes; setup_s is the median of all


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload: str, seed: int, work_dir: Path):
    """Import the program, build the pass from the seed, run one warm-up op."""
    start = time.perf_counter()
    import harness

    wl = harness.load(workload)
    ops = wl.make_ops(seed, work_dir=work_dir)
    harness.run_one(wl, ops[0], 0)
    return wl, ops, time.perf_counter() - start


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def environment() -> dict:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "unknown",
        "blas_version": "unknown",
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"], env["blas_version"] = blas["name"], blas["version"]
    except (KeyError, TypeError, ValueError):
        pass
    return env


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_failures(ops, records, failures, limit=10):
    for pos, reason in failures[:limit]:
        print(f"  FAILED {ops[records[pos].op_index].kind} [{ops[records[pos].op_index].label}]: {reason}")
    if len(failures) > limit:
        print(f"  ... and {len(failures) - limit} more")


def _scale_probe(seed: int) -> int:
    """Known-defect probe: transport ops at atom scales below the timed range."""
    import harness
    import wl_transport

    ops = wl_transport.make_probe_ops(seed)
    records, _, _ = harness.timed_passes(wl_transport, ops, 0.0, 0, max_passes=1)
    failures = harness.verify(wl_transport, ops, records)
    lo, hi = wl_transport.PROBE_SCALE
    print(f"known-defect probe: {len(failures)} of {len(ops)} transport ops at atom scale "
          f"10^U({lo:g},{hi:g}) failed their check; they are outside the timed ops and not counted above")
    _print_failures(ops, records, failures, limit=3)
    return len(failures)


def end_to_end(args, wl, ops, setup_main: float):
    import harness

    records, elapsed, passes = harness.timed_passes(wl, ops, args.seconds, MIN_OPS)
    rss = peak_rss_mb(args.workload)
    setups = [setup_main] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    failures = harness.verify(wl, ops, records)
    lat = sorted(r.latency_s for r in records)
    p90 = harness.quantile(lat, 0.9)
    beyond = sum(1 for v in lat if v > p90)
    passed = len(records) - len(failures)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(passed / elapsed, "1/s"),
        "latency_p50_ms": _metric(harness.quantile(lat, 0.5) * 1e3, "ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    print(f"passes {passes}  ops {len(records)}  timed {elapsed:.3f} s  failed {len(failures)}  "
          f"fail_ratio {len(failures) / len(records):.4g} (1)")
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for name, m in metrics.items():
        note = f"  (n={len(lat)}, {beyond} above)" if name == "latency_p90_ms" else ""
        print(f"{name:16s} {m['value']:.6g} {m['unit']}{note}")
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(ops[r.op_index].kind, []).append(r.latency_s)
    for kind, values in by_kind.items():
        print(f"  {kind:28s} n={len(values):4d}  median {statistics.median(values) * 1e3:9.3f} ms  "
              f"total {sum(values):7.3f} s")
    _print_failures(ops, records, failures)
    if args.workload == "library":
        _scale_probe(args.seed)
    return records, failures, metrics, []


def per_layer(args, wl, ops):
    import harness
    from tracer import Tracer, layer_metrics

    plain, untraced_s, _ = harness.timed_passes(wl, ops, 0.0, 0, max_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s, _ = harness.timed_passes(wl, ops, 0.0, 0, max_passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    if len(plain) != len(traced):
        raise RuntimeError("traced and untraced passes ran different op counts")
    records = plain + traced
    failures = harness.verify(wl, ops, records)
    layers = layer_metrics(tracer)
    layers["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    library = args.workload == "library"
    layers["transport.scale_probe_failed"] = (_scale_probe(args.seed) if library else 0, "count")
    layers["learn.max_rel_subopt"] = (wl.max_train_suboptimality(ops, plain) if library else 0.0, "1")
    metrics = {name: _metric(v, unit) for name, (v, unit) in layers.items()}
    print(f"one untraced pass {untraced_s:.3f} s, one traced pass {traced_s:.3f} s, "
          f"{len(traced)} ops each, {len(tracer.spans)} spans, failed {len(failures)}")
    if tracer.absent:
        print("absent wrapped names (their counters read 0): " + ", ".join(tracer.absent))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    _print_failures(ops, records, failures)
    spans = [[s[0], s[1], s[2], s[3], s[4]] for s in tracer.spans]
    return records, failures, metrics, spans


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "wdro" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'wdro'}; run from a wdro source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".perfbench-work"
    work_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl, ops, setup_s = set_up(args.workload, args.seed, work_dir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
              f"ops per pass {len(ops)}")
        env = environment()
        print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
        if args.trace:
            records, failures, metrics, spans = per_layer(args, wl, ops)
        else:
            records, failures, metrics, spans = end_to_end(args, wl, ops, setup_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "result": result,
        "failures": [{"op": ops[records[pos].op_index].label, "reason": why} for pos, why in failures],
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": spans,
    }
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(f"result file: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
