"""One fresh worker process: runs one workload's operations, prints one JSON line.

``run.py`` starts it with the program's ``src`` directory on ``PYTHONPATH``:

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--spans PATH]

Untraced (``--trace 0``): operation 0 is timed alone (the first operation in
a fresh process), then warm operations run in a closed loop until ``S``
seconds have passed; the one running at the deadline completes.  The fixed
``reference()`` loop runs before operation 0 and after every operation, for
a tenth of that operation's time, so that ``run.py`` can scale the operation
times to a host of fixed speed.  No wrapper is installed, which the worker
confirms after the timed phase.

Traced (``--trace 1``): after an untraced operation 0, each operation ``i``
runs twice, once untraced and once traced, alternating which goes first, so
the tracing overhead is measured on the same inputs in the same process.
It stops at the deadline or after ``MAX_TRACED_OPS`` pairs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS, load_pinned

MAX_TRACED_OPS = 20  # bounds the spans held in memory
REF_SHARE = 0.1  # after each operation, reference() runs for this share of its time


def reference() -> float:
    """Time, in seconds, of a fixed pure-Python loop that calls nothing of the program.

    The host is a shared VM whose speed drifts by a fifth over minutes, and
    this loop's time drifts with it, so the operation time divided by it is
    steadier than either.  The collector is off while it runs, so the
    program's heap, which a later change may grow, does not slow it.
    """
    gc.disable()
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(30000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i % 7
        acc += i * 31 % 11
    harmonic = Fraction(0)
    for i in range(1, 200):
        harmonic += Fraction(1, i)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def reference_samples(op_s: float) -> list:
    """reference() once, then again until the samples add up to REF_SHARE of op_s."""
    samples = [reference()]
    while sum(samples) < REF_SHARE * op_s:
        samples.append(reference())
    return samples


def attempt(wl, i: int, failures: list, tracer=None) -> float:
    """Run operation i; return its wall time in seconds and record a failure if any."""
    inp = wl.inputs(i)
    if tracer is not None:
        tracer.install()
        tracer.op = i
    err = None
    start = time.perf_counter()
    try:
        out = tracer.call("op", wl.run, inp) if tracer is not None else wl.run(inp)
    except Exception as exc:  # a raising operation is a failed one; keep measuring
        err = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if err is None:
        err = wl.verify(inp, out)
    if err is not None:
        failures.append(f"op {i}: {err}")
    return elapsed


def timed_phase(wl, seconds: float) -> dict:
    failures: list = []
    ref = [reference_samples(0.0)]
    first = attempt(wl, 0, failures)
    ref.append(reference_samples(first))
    warm = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        warm.append(attempt(wl, len(warm) + 1, failures))
        ref.append(reference_samples(warm[-1]))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import tracer  # only now, so the timed phase ran without it

    return {
        "first_ms": first * 1e3,
        "warm_ms": [t * 1e3 for t in warm],
        "ref_ms": [[t * 1e3 for t in group] for group in ref],
        "maxrss_kb": maxrss_kb,
        "wrappers": tracer.installed_wrappers(),
        "attempted": len(warm) + 1,
        "failures": failures,
    }


def traced_phase(wl, seconds: float, spans_path: str | None) -> dict:
    import tracer as tracing

    tr = tracing.Tracer()
    failures: list = []
    attempt(wl, 0, failures)
    plain = traced = 0.0
    i = 1
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and i <= MAX_TRACED_OPS:
        for with_trace in ((False, True) if i % 2 else (True, False)):
            elapsed = attempt(wl, i, failures, tr if with_trace else None)
            if with_trace:
                traced += elapsed
            else:
                plain += elapsed
        i += 1
    n = i - 1
    layers = tracing.aggregate(tr.spans, tr.counts, n)
    op_busy = sum(end - st for _, name, st, end, _ in tr.spans if name == "op")
    suite_busy = sum(layers[f"{s}.busy_ms"] for s in tracing.SUITE_SPANS) * n * 1e6
    layers["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    layers["trace.suite_share_pct"] = 100.0 * suite_busy / op_busy
    layers["trace.op_ms"] = op_busy / 1e6 / n
    layers["trace.ops"] = n
    if spans_path:
        tr.write_spans(spans_path)
    return {
        "layers": layers,
        "wrappers": tracing.installed_wrappers(),
        "attempted": 1 + 2 * n,
        "failures": failures,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans here")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload](args.seed, load_pinned())
    if args.trace:
        result = traced_phase(wl, args.seconds, args.spans)
    else:
        result = timed_phase(wl, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
