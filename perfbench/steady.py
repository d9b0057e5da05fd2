"""Steadiness check and baseline for the benchmark.

    python3 perfbench/steady.py --seeds 1-10 --write perfbench/baseline.json
    python3 perfbench/steady.py --seeds 1-10 --compare perfbench/baseline.json

Runs every workload of BENCHMARK.json once per seed, untraced, at the
file's ``run_seconds``.  For each end-to-end metric it prints the median
and the quartile spread ``(q3 - q1) / median`` over the seeds, next to the
metric's bound.  The check fails unless each spread is below a third of
its bound.  ``--write`` stores the runs, the
environment and the output digests; ``--compare`` checks a stored set
against this one: each median may be worse by at most its bound, and the
outputs of each seed should be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys

import run


def _seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--write", help="store the runs in this file")
    ap.add_argument("--compare", help="compare with runs stored in this file")
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    old = None
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)

    stored: dict = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = {}
        for seed in args.seeds:
            with contextlib.redirect_stdout(io.StringIO()):
                res = run.run_workload(workload, seed, seconds, False)
            stored["env"] = res["env"]
            metrics = {k: v["value"] for k, v in res["contract"]["metrics"].items()}
            runs[str(seed)] = {
                "metrics": metrics,
                "digests": res["digests"],
                "failed": res["failed"],
            }
            ok = ok and res["failed"] == 0
            print(f"{workload} seed={seed} failed={res['failed']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        stored["workloads"][workload] = runs
        for name, spec in bounds.items():
            values = [r["metrics"][name] for r in runs.values()]
            med = statistics.median(values)
            spread = _spread(values) if len(values) > 1 else 0.0
            steady = spread < spec["bound"] / 3
            ok = ok and steady
            line = (f"  {workload:<15} {name:<12} median={med:<12.6g} spread={spread:.4f} "
                    f"bound={spec['bound']} {'steady' if steady else 'NOT STEADY'}")
            if old is not None and workload in old["workloads"]:
                before = [r["metrics"][name] for r in old["workloads"][workload].values()]
                was = statistics.median(before)
                worse = (med - was) / was if spec["better"] == "lower" else (was - med) / was
                line += f" vs {was:.6g}: {'+' if worse >= 0 else ''}{100 * worse:.1f}% worse"
                if worse > spec["bound"]:
                    line += " REGRESSED"
                    ok = False
            print(line, flush=True)
        if old is not None and workload in old["workloads"]:
            same = [
                s for s, r in runs.items()
                if s in old["workloads"][workload]
                and old["workloads"][workload][s]["digests"] == r["digests"]
            ]
            common = [s for s in runs if s in old["workloads"][workload]]
            print(f"  {workload:<15} byte-identical outputs on {len(same)} of {len(common)} shared seeds")
            ok = ok and len(same) == len(common)
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
