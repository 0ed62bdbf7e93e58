"""godeaux-cert benchmark: one closed-loop client, each workload in a fresh worker process.

Run from the repository root:

    python3 bench/run.py --workload all_default --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16   # every workload in turn

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
no wrapper installed; ``--trace 1`` prints its per-layer metrics, from a
separate traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each
result is also recorded, with the environment it ran in, under
``.bench_out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("all_default", "surface_sweep", "pdo_props", "lattice_rr")
SETUP_PROBES = 15
# Fresh workers per timed run, one after another, each measuring an equal
# share of --seconds, so that first_op_ms is a median of samples spread over
# the run: one sample moves with the machine's slow spells.  Each worker
# costs one more first operation, so workloads whose first operation takes
# seconds get few: surface_sweep's (a full scan of a dense member) is the
# steadiest and gets one.
WORKERS = {"all_default": 3, "pdo_props": 2, "lattice_rr": 9}
RUN_BUDGET_S = 170.0  # a run ends within this, whatever the workers do
# The *_norm_* metrics are operation times, each scaled by REF_MS / (mean time
# of the worker.reference() samples taken just before and just after it): what
# they would read on a host where that loop takes REF_MS, about what it takes
# on the 2-vCPU Xeon VM this benchmark was written on.  That host's speed
# drifts by a fifth over minutes and the loop drifts with it, so the scaled
# times stay within a few percent of each other where the raw ones do not.
# The loop calls nothing of the program, so a change to the program moves the
# scaled times as much as the raw ones.
REF_MS = 16.0
UNSCALED = {"first_op_ms": "ms", "op_p50_ms": "ms", "ops_per_s": "1/s", "ref_ms": "ms"}

# A fresh interpreter, up to the CLI module imported.
PROBE = "import time, godeaux_cert.cli as c; t = time.monotonic_ns(); print(t, c.__file__)"


class BenchError(Exception):
    """The benchmark could not produce a result (as opposed to a wrong output)."""


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{argv[1]} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_samples(n: int, deadline: float) -> list:
    """Seconds from starting a fresh interpreter to ``godeaux_cert.cli`` imported, n times."""
    samples = []
    for _ in range(n):
        start = time.monotonic_ns()
        out = run_child([sys.executable, "-c", PROBE], deadline).split()
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise BenchError(f"godeaux_cert.cli imported from {out[1]}, not from {SRC}")
        samples.append((int(out[0]) - start) / 1e9)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{workload}.tsv.gz")]
    lines = run_child(argv, deadline).strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {lines[-1:]}") from exc


def measure_timed(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    # half the set-up probes before the workers and half after, so that one
    # slow spell of the machine does not move the median
    setup = setup_samples(SETUP_PROBES - SETUP_PROBES // 2, deadline)
    workers = WORKERS.get(workload, 1)
    res = {"first_ms": [], "warm_ms": [], "ref_ms": [], "workers": [], "maxrss_kb": 0,
           "attempted": 0, "failures": [], "wrappers": 0}
    first_norm, warm_norm = [], []
    for _ in range(workers):
        one = run_worker(workload, seed, seconds / workers, 0, deadline)
        groups = one["ref_ms"]  # groups[i] ran just before operation i, groups[i + 1] just after
        ops = [one["first_ms"]] + one["warm_ms"]
        # each operation scaled to a host where worker.reference() takes REF_MS
        scaled = [t * REF_MS / statistics.mean(groups[i] + groups[i + 1]) for i, t in enumerate(ops)]
        first_norm.append(scaled[0])
        warm_norm += scaled[1:]
        res["first_ms"].append(one["first_ms"])
        res["ref_ms"] += [t for group in groups for t in group]
        res["maxrss_kb"] = max(res["maxrss_kb"], one["maxrss_kb"])
        res["workers"].append(one)
        for key in ("warm_ms", "attempted", "failures", "wrappers"):
            res[key] += one[key]
    setup += setup_samples(SETUP_PROBES // 2, deadline)
    if not res["warm_ms"]:
        raise BenchError("no warm operation completed")
    res["values"] = {
        "setup_s": statistics.median(setup),
        "first_op_norm_ms": statistics.median(first_norm),
        "op_p50_norm_ms": statistics.median(warm_norm),
        "ops_per_norm_s": len(warm_norm) / sum(warm_norm) * 1e3,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        # as measured on this host, unscaled: printed and recorded, not gated
        "first_op_ms": statistics.median(res["first_ms"]),
        "op_p50_ms": statistics.median(res["warm_ms"]),
        "ops_per_s": len(res["warm_ms"]) / sum(res["warm_ms"]) * 1e3,
        "ref_ms": statistics.median(res["ref_ms"]),
    }
    return res


def measure(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Run one workload; return metric values, op counts, samples and the failures seen."""
    if trace:
        res = run_worker(workload, seed, seconds, 1, deadline)
        res["values"] = res["layers"]
    else:
        res = measure_timed(workload, seed, seconds, deadline)
    problems = list(res["failures"])
    if res["wrappers"]:
        problems.append(f"{res['wrappers']} tracer wrappers left installed")
    return {
        "values": res["values"],
        "first_ms": res.get("first_ms"),
        "warm_ms": res.get("warm_ms"),
        "ref_ms": res.get("ref_ms"),
        "workers": res.get("workers"),
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "failures": problems,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "godeaux_cert" / "cli.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    specs = metric_specs()["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    metrics, attempted, failed, problems = {}, 0, 0, []
    for name in names:
        env = environment(name, args.seed, args.seconds, args.trace)
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            res = measure(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print(f"env {json.dumps(env)}")
        for metric, unit in specs:
            value = res["values"][metric]
            note = f"  (n={len(res['warm_ms'])})" if metric == "op_p50_norm_ms" else ""
            print(f"{metric:<48} {value:>14.4f} {unit}{note}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
        if not args.trace:
            for metric, unit in UNSCALED.items():
                print(f"{metric:<48} {res['values'][metric]:>14.4f} {unit} (unscaled)")
        print(f"{'failed_frac':<48} {res['failed'] / res['attempted']:>14.4f} ({res['failed']}/{res['attempted']})")
        for msg in res["failures"][:5]:
            print(f"  failure: {msg}")
        attempted += res["attempted"]
        failed += res["failed"]
        problems += res["failures"]
        record = dict(res, env=env)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8"
        )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
