"""forestnets benchmark: end-to-end CLI workloads with a traced breakdown.

One run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload forest-stats --seed 1 --seconds 20 --trace 0

sets the workload up ``SETUP_REPEATS`` times in fresh processes (import,
seeded inputs, and for signal-query the archive build), half of them
before and half after a closed loop with one client, which runs in one
more fresh process for ``--seconds``.  Every process runs on one core, and
every timed call and set-up is paired with a reference kernel timed on
that core right before and after it (``reference.py``); the gated times
are normalised by it.
It prints the named metrics with units and sample counts, and as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).

Every workload and both trace modes in one command, with the tracing
overhead and a per-layer table:

    python3 perfbench/run.py --all --seed 1 --seconds 20

The program is imported from ``src/`` of the checkout this file sits in;
a checkout without it is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import reference
from inputs import STATS_DRAWS
from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("forest-stats", "signal-analyze", "signal-query")
SETUP_REPEATS = 7
# one BLAS thread plus the client thread keeps the load within two cores
# and makes float results independent of the core count
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0

# named per-call timings, by workload: (metric, call labels, unit)
NAMED = {
    "forest-stats": [("draws_per_s", ("stats",), "1/s")],
    "signal-analyze": [("analyze_s", ("analyze",), "s")],
    "signal-query": [
        ("compress_s", ("compress",), "s"),
        ("bounds_s", ("bounds-p2", "bounds-pinf"), "s"),
        ("reconstruct_s", ("reconstruct",), "s"),
    ],
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=_env(),
        stdout=subprocess.PIPE,
        timeout=max(timeout, 1.0),
        text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pin() -> None:
    """Keep this process and its children on one core, so that a call and
    the reference kernel around it run on the same core."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _setup_times(t0: float, before: float, marks: list) -> tuple[float, float]:
    """Wall and normalised time of one set-up.  Each phase (interpreter
    start, import, inputs, archive) is scaled by the mean of the reference
    kernel times at its two ends; the kernel runs themselves are left out."""
    nominal = reference.nominal("set-up")
    wall = norm = 0.0
    start, ref = t0, before
    for end, kernel, kernel_end in marks:
        wall += end - start
        norm += (end - start) * nominal / ((ref + kernel) / 2)
        start, ref = kernel_end, kernel
    return wall, norm


def _percentile(values: list[float]) -> str:
    """The highest of p50/p75/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return ""
    q = statistics.quantiles(values, n=100, method="inclusive")[best - 1]
    return f"  call p{best}={q:.6g} s"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and run one workload; print its report and return the result."""
    if not os.path.isfile(os.path.join(SRC, "forestnets", "__init__.py")):
        raise BenchError(f"no forestnets sources under {SRC}")
    started = time.perf_counter()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    setups, setups_norm, digests = [], [], set()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    def set_up(times: int) -> None:
        for _ in range(times):
            before = reference.measure("set-up")
            t0 = time.perf_counter()
            doc = _worker(["--mode", "setup", *common], left())
            wall, norm = _setup_times(t0, before, doc["marks"])
            setups.append(wall)
            setups_norm.append(norm)
            digests.add(doc["inputs_sha256"])

    try:
        # half the set-ups before the loop and half after, so that they
        # sample the host at two moments
        set_up(SETUP_REPEATS - SETUP_REPEATS // 2)
        res = _worker(
            ["--mode", "run", "--seconds", str(seconds), "--trace", str(int(trace)), *common],
            left(),
        )
        if res["pending"]:
            verdicts = _worker(["--mode", "check", *common], left())
            for label, calls in res["pending"].items():
                problem = verdicts.get(label, f"{label}: deferred check did not run")
                if problem is not None:
                    res["failed"] += calls
                    res["problems"].append(problem)
        set_up(SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    if os.path.commonpath([res["src"], SRC]) != SRC:
        raise BenchError(f"forestnets was imported from {res['src']}, not {SRC}")
    if len(digests) != 1:
        res["failed"] += 1
        res["problems"].append("set-up wrote different inputs for one seed")

    op_s = res["op_s"]
    # each call's median time scaled by the reference kernel around it
    nominal = reference.nominal(workload)
    op_norm = sum(
        statistics.median(t * nominal / r for t, r in zip(times, res["ref_s"][label]))
        for label, times in res["call_s"].items()
    )
    e2e = {
        "op_norm_s": (op_norm, "s"),
        "setup_s": (statistics.median(setups_norm), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    env = res["env"]
    blas = env["blas"]
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(
        f"env: nproc={env['nproc']} cpus_used={env['cpus_used']} python={env['python']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={blas['name']} {blas['version']} "
        f"blas_threads={blas['threads']} OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}"
    )
    print(f"  {'op_norm_s':<16} {op_norm:12.6g} s      sum over the operation's "
          f"{len(res['call_s'])} calls of each call's median normalised time")
    print(f"  {'setup_s':<16} {e2e['setup_s'][0]:12.6g} s      median normalised set-up of "
          f"n={len(setups)}")
    print("  wall times, not normalised:")
    print(f"  {'op_s':<16} {statistics.median(op_s):12.6g} s      median of n={len(op_s)}"
          f"{_percentile(op_s)}")
    print(f"  {'setup_wall_s':<16} {statistics.median(setups):12.6g} s      median of n={len(setups)}")
    for name, labels, unit in NAMED[workload]:
        times = [t for label in labels for t in res["call_s"][label]]
        med = statistics.median(times)
        value = STATS_DRAWS / med if unit == "1/s" else med
        print(f"  {name:<16} {value:12.6g} {unit:<6} median of n={len(times)}{_percentile(times)}")
    print(f"  {'peak_rss_mb':<16} {res['peak_rss_mb']:12.6g} MB")
    print(f"  {'error_rate':<16} {res['failed'] / res['attempted']:12.6g}        "
          f"{res['failed']} failed of {res['attempted']} calls")
    for problem in res["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print("  output sha256: " + " ".join(f"{k}={v[:16]}" for k, v in sorted(res["digests"].items())))
    res["e2e"] = e2e
    res["setup_s"] = setups
    if trace:
        print(f"  per-layer (median per operation, {res['spans']} spans):")
        for name, (unit, _, moves) in PER_LAYER.items():
            print(f"    {name:<36} {res['per_layer'][name]:12.6g} {unit:<6} moves {moves}")
        metrics = {k: {"value": res["per_layer"][k], "unit": u} for k, (u, _, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    res["contract"] = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return res


def run_all(seed: int, seconds: float) -> bool:
    ok = True
    rows = {}
    for workload in WORKLOADS:
        plain = run_workload(workload, seed, seconds, False)
        traced = run_workload(workload, seed, seconds, True)
        ok = ok and plain["contract"]["correct"] and traced["contract"]["correct"]
        overhead = traced["e2e"]["op_norm_s"][0] - plain["e2e"]["op_norm_s"][0]
        print(f"  tracing overhead on op_norm_s: {overhead:+.6g} s "
              f"({100 * overhead / plain['e2e']['op_norm_s'][0]:+.1f}%)\n")
        rows[workload] = traced["per_layer"]

    print("per-layer summary (median per operation, traced runs)")
    print(f"  {'metric':<36}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for name, (unit, _, _) in PER_LAYER.items():
        print(f"  {name:<36}" + "".join(f"{rows[w][name]:16.6g}" for w in WORKLOADS) + f"  {unit}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, plain and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    _pin()
    try:
        if args.all:
            return 0 if run_all(args.seed, args.seconds) else 1
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(res["contract"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
