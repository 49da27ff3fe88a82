"""Shared machinery: the operation record, the closed timing loop and the checker.

Every op-set module (``wl_transport``, ``wl_worst_case``, ``wl_estimators``)
and every workload module (``wl_library``, ``wl_cli``) exposes the same
functions:

* ``make_ops(seed, tiny=False)`` -> list of ``Op``: one pass; workload
  modules also take ``work_dir``, a scratch directory for input files;
* ``run(op, tracer=None)`` -> the program's answer for one op;
* ``check(op, answer)`` -> ``None`` when an independent check accepts the
  answer, otherwise a one-line reason;
* ``fingerprint(op, answer)`` -> bytes that identify the answer exactly;
* ``corrupt(op, answer)`` -> a deliberately wrong copy, for the self-test.

The program is deterministic, so every rerun of an op must reproduce the
answer bit for bit.  The first answer of each op gets the full independent
check; a rerun is accepted when its fingerprint equals that verified answer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import math
import time

import numpy as np

WORKLOADS = {"library": "wl_library", "cli": "wl_cli"}


@dataclasses.dataclass(frozen=True, eq=False)
class Op:
    """One closed-loop request: which entry point, a short label, its inputs."""

    kind: str
    label: str
    inputs: dict


@dataclasses.dataclass
class Record:
    op_index: int
    latency_s: float
    answer: object
    error: str | None


def load(workload: str):
    return importlib.import_module(WORKLOADS[workload])


def spread(ops: list) -> list:
    """Reorder a pass by a golden-ratio stride, keeping the first op first.

    Ops of one kind or size then run spread over the whole pass instead of
    in one burst, so every latency quantile samples the whole run and not a
    fraction of a second of machine noise.
    """
    n = len(ops)
    stride = max(1, round(0.618 * n))
    while math.gcd(stride, n) != 1:
        stride -= 1
    return [ops[(i * stride) % n] for i in range(n)]


def digest(*parts) -> bytes:
    """Exact fingerprint of floats, arrays, strings and bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        else:
            h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
        h.update(b"|")
    return h.digest()


def run_one(wl, op: Op, index: int, tracer=None) -> Record:
    start = time.perf_counter()
    try:
        if tracer is None:
            answer = wl.run(op)
        else:
            with tracer.span("op." + op.kind, op_id=index):
                answer = wl.run(op, tracer)
        error = None
    except Exception as exc:  # every failure of the program is counted, never fatal
        answer, error = None, f"{type(exc).__name__}: {exc}"
    return Record(index, time.perf_counter() - start, answer, error)


def timed_passes(wl, ops, seconds: float, min_ops: int, max_passes: int | None = None, tracer=None):
    """Closed loop, one client: whole passes over ``ops`` until time is up.

    A further pass starts only while it is expected to end within
    ``seconds``, unless fewer than ``min_ops`` ops have run so far.  The
    loop never runs longer than three times ``seconds``.
    """
    records: list[Record] = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, op in enumerate(ops):
            records.append(run_one(wl, op, i, tracer))
        passes += 1
        now = time.perf_counter()
        elapsed, pass_time = now - start, now - pass_start
        if max_passes is not None and passes >= max_passes:
            break
        if len(records) >= min_ops and elapsed + pass_time > seconds:
            break
        if elapsed + pass_time > 3.0 * seconds:
            break
    return records, time.perf_counter() - start, passes


def verify(wl, ops, records) -> list[tuple[int, str]]:
    """Independent check of every answer; returns (record position, reason) per failure."""
    verified: dict[int, bytes] = {}
    failures = []
    for pos, rec in enumerate(records):
        if rec.error is not None:
            failures.append((pos, rec.error))
            continue
        fp = wl.fingerprint(ops[rec.op_index], rec.answer)
        if rec.op_index in verified:
            if verified[rec.op_index] != fp:
                failures.append((pos, "rerun differs from the verified answer"))
            continue
        try:
            reason = wl.check(ops[rec.op_index], rec.answer)
        except Exception as exc:  # a malformed answer can break the checker itself
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None:
            verified[rec.op_index] = fp
        else:
            failures.append((pos, reason))
    return failures


def off(value: float, ref: float, tol: float) -> bool:
    """True when ``value`` misses ``ref`` by more than ``tol`` relative to 1 + |ref|."""
    return not abs(value - ref) <= tol * (1.0 + abs(ref))


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    n = len(sorted_values)
    k = min(n - 1, max(0, int(np.ceil(q * n)) - 1))
    return float(sorted_values[k])
