"""One benchmark process: set a workload up, or run it as a closed loop.

``--mode setup`` imports forestnets, writes the seeded inputs (and, for
signal-query, the pyramid archive) into the work directory, and prints
the monotonic times at which each phase ended, each with the reference
kernel timed right then; ``run.py`` started the clock just before
spawning it.

``--mode run`` is the single client of the closed loop: it issues one
``forestnets.cli.main(argv)`` operation at a time, waits for it, checks
its output outside the timed region, and repeats until ``--seconds`` have
passed.  Each call is bracketed by the workload's reference kernel (see
``reference.py``).  With ``--trace 1`` every call is recorded as spans
first.
Outputs whose check would itself take much memory (the analyze archive)
are saved once and left for ``--mode check``, so the run process's peak
RSS covers only the CLI calls.

``--mode check`` runs those deferred checks in a process of its own.
The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import inputs
import reference
import spans


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _setup(workload: str, seed: int, workdir: str, mark) -> dict:
    """Write the inputs; ``mark()`` is called at the end of each phase."""
    import forestnets.cli  # noqa: F401  (the import is part of set-up)

    mark()
    plan = inputs.generate(workload, seed, workdir)
    if workload == "signal-query":
        mark()
        from forestnets import fileio, wavelets

        with open(plan["edges"]) as fh:
            net = fileio.read_network(fh, True)
        with open(plan["signal"]) as fh:
            values = fileio.read_signal(fh, net.n)
        with open(plan["keeps"]) as fh:
            keeps = json.load(fh)
        pyr = wavelets.build_pyramid(net, values, forced_keep=keeps)
        with open(plan["archive"], "w") as fh:
            fileio.write_pyramid(fh, pyr)
    with open(os.path.join(workdir, "plan.json"), "w") as fh:
        json.dump(plan, fh, sort_keys=True)
    return plan


def _input_digest(plan: dict) -> str:
    files = [plan[k] for k in ("edges", "signal", "keeps") if k in plan]
    if plan["workload"] == "signal-query":
        files.append(plan["archive"])
    return _sha256("".join(_file_sha256(f) for f in files).encode())


# ---------------------------------------------------------------------------
# operations: a list of (label, argv, output file or None) CLI calls; the
# label's first word is the kind of call, which picks its check


def _operation(plan: dict) -> list[tuple[str, list[str], str | None]]:
    seed = str(plan["program_seed"])
    w = plan["workload"]
    if w == "forest-stats":
        argv = ["forest", "stats", plan["edges"], "--q", repr(plan["q"]),
                "--seed", seed, "--samples", str(plan["draws"])]
        return [("stats", argv, None)]
    if w == "signal-analyze":
        argv = ["signal", "analyze", plan["edges"], plan["signal"], "--undirected",
                "--seed", seed, "--levels", str(plan["levels"]),
                "--output", plan["archive"]]
        return [("analyze", argv, plan["archive"])]
    archive = plan["archive"]
    rec = os.path.join(os.path.dirname(archive), "reconstructed.csv")
    fractions = ",".join(repr(f) for f in plan["fractions"])
    return [
        ("compress", ["signal", "compress", archive, "--fractions", fractions], None),
        ("bounds-p2", ["signal", "bounds", archive, "--p", "2"], None),
        ("bounds-pinf", ["signal", "bounds", archive, "--p", "inf"], None),
        ("reconstruct", ["signal", "reconstruct", archive, "--keep-fraction",
                         repr(plan["reconstruct_fraction"]), "--output", rec], rec),
    ]


# kinds of call whose output is checked by ``--mode check`` afterwards
DEFERRED = {"analyze"}


def _pending_path(workdir: str, label: str) -> str:
    return os.path.join(workdir, f"pending-{label}")


class Checker:
    """Output checks against references computed before the loop."""

    def __init__(self, plan: dict) -> None:
        from forestnets import fileio, oracle

        self.plan = plan
        with open(plan["edges"]) as fh:
            self.net = fileio.read_network(fh, plan["workload"] != "forest-stats")
        if plan["workload"] == "forest-stats":
            self.moments = oracle.root_count_moments(self.net, plan["q"])
        else:
            with open(plan["signal"]) as fh:
                self.signal = fileio.read_signal(fh, self.net.n)
        self.compress_curve: dict[float, float] = {}

    def __call__(self, kind: str, argv: list[str], out: bytes) -> str | None:
        """None when the output is right, else what is wrong."""
        return getattr(self, "_" + kind)(argv, out)

    def _stats(self, argv, out):
        doc = json.loads(out)
        n = self.plan["draws"]
        if sum(doc["root_count_hist"].values()) != n:
            return "root-count histogram does not sum to the number of draws"
        mean, var = self.moments
        if abs(doc["mean_roots"] - mean) > 5.0 * math.sqrt(var / n):
            return f"mean_roots {doc['mean_roots']} not within 5 SE of {mean}"
        if not doc["chi2_pvalue"] >= 1e-6:
            return f"chi-square p-value {doc['chi2_pvalue']} below 1e-6"
        return None

    def _analyze(self, argv, out):
        from forestnets import fileio, wavelets

        pyr, _ = fileio.read_pyramid(io.StringIO(out.decode()))
        got = wavelets.reconstruct_pyramid(pyr)
        scale = float(abs(self.signal).max())
        err = float(abs(got - self.signal).max())
        if not err <= 1e-9 * scale:
            return f"pyramid reconstruction off by {err:.3e} (scale {scale:.3e})"
        return None

    def _compress(self, argv, out):
        rows = out.decode().strip().splitlines()[1:]
        curve = [(float(r.split(",")[0]), float(r.split(",")[3])) for r in rows]
        if [f for f, _ in curve] != self.plan["fractions"]:
            return "compress rows do not match the requested fractions"
        errs = [e for _, e in curve]
        if any(b > a for a, b in zip(errs, errs[1:])):
            return "compression error increases with the kept fraction"
        if not errs[-1] <= 1e-10:
            return f"compression error {errs[-1]:.3e} at fraction 1"
        self.compress_curve = dict(curve)
        return None

    def _bounds(self, argv, out):
        if json.loads(out)["all_dominated"] is not True:
            return f"bounds not dominated ({' '.join(argv[-2:])})"
        return None

    def _reconstruct(self, argv, out):
        from forestnets import fileio

        values = fileio.read_signal(io.StringIO(out.decode()), self.net.n)
        # the symmetric grid has uniform mu, so the mu-weighted relative
        # 2-norm error equals the plain one
        diff = sum((a - b) ** 2 for a, b in zip(values, self.signal))
        rel = math.sqrt(diff / sum(b * b for b in self.signal))
        want = self.compress_curve.get(self.plan["reconstruct_fraction"])
        if want is None or abs(rel - want) > 1e-6:
            return f"reconstruction error {rel} differs from compress curve {want}"
        return None


def _call(argv: list[str]) -> tuple[int, float, bytes]:
    import forestnets.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = forestnets.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # noqa: BLE001  a traceback is a failed operation
            traceback.print_exc()
            rc = 1
        dt = time.perf_counter() - t0
    return rc, dt, buf.getvalue().encode()


def _blas() -> dict:
    import numpy as np

    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _run(plan: dict, workdir: str, seconds: float, trace: bool) -> dict:
    import forestnets

    src = os.path.realpath(os.path.dirname(forestnets.__file__))
    checker = Checker(plan)
    recorder = None
    if trace:
        recorder = spans.Recorder()
        spans.install(recorder)

    calls = _operation(plan)
    op_s: list[float] = []
    call_s: dict[str, list[float]] = {}
    ref_s: dict[str, list[float]] = {}  # reference kernel time around each call
    digests: dict[str, str] = {}
    verdicts: dict[tuple[str, str], str | None] = {}
    op_of_call: dict[int, int] = {}
    archive_bytes: dict[int, int] = {}
    pending: dict[str, int] = {}  # label -> calls that wait on its deferred check
    problems: list[str] = []
    attempted = failed = 0
    # stop before an operation that would likely end past the deadline,
    # so a run lasts about ``seconds`` whatever the operation's length
    deadline = time.perf_counter() + seconds
    while True:
        op = len(op_s)
        op_start = time.perf_counter()
        total = 0.0
        for label, argv, out_path in calls:
            kind = label.split("-")[0]
            op_of_call[attempted] = op
            before = reference.measure(plan["workload"])
            if recorder is not None:
                recorder.op, recorder.active = attempted, True
            rc, dt, out = _call(argv)
            if recorder is not None:
                recorder.active = False
            after = reference.measure(plan["workload"])
            attempted += 1
            total += dt
            call_s.setdefault(label, []).append(dt)
            ref_s.setdefault(label, []).append((before + after) / 2)
            if rc != 0:
                problem = f"{label}: exit code {rc}"
            else:
                if out_path is not None:
                    with open(out_path, "rb") as fh:
                        out = fh.read()
                if kind == "analyze":
                    archive_bytes[op] = len(out)
                digest = _sha256(out)
                if kind not in DEFERRED and (label, digest) not in verdicts:
                    try:
                        verdicts[label, digest] = checker(kind, argv, out)
                    except Exception as exc:  # noqa: BLE001
                        verdicts[label, digest] = f"{label}: unreadable output {exc!r}"
                problem = verdicts.get((label, digest))
                if digests.setdefault(label, digest) != digest:
                    problem = f"{label}: output differs between identical calls"
                elif kind in DEFERRED:
                    if label not in pending:
                        with open(_pending_path(workdir, label), "wb") as fh:
                            fh.write(out)
                    pending[label] = pending.get(label, 0) + 1
            if problem is not None:
                failed += 1
                if problem not in problems:
                    problems.append(problem)
        op_s.append(total)
        now = time.perf_counter()
        if now + (now - op_start) > deadline:
            break

    result = {
        "src": src,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "op_s": op_s,
        "call_s": call_s,
        "ref_s": ref_s,
        "digests": digests,
        "pending": pending,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if recorder is not None:
        totals = spans.op_totals(recorder.spans, op_of_call)
        per_op = []
        for op in range(len(op_s)):
            t = dict(totals.get(op, {}), archive_bytes=archive_bytes.get(op, 0))
            per_op.append(spans.layer_metrics(t))
        result["per_layer"] = {
            k: statistics.median(row[k] for row in per_op) for k in spans.PER_LAYER
        }
        result["spans"] = len(recorder.spans)
    return result


def _check_pending(plan: dict, workdir: str) -> dict:
    """Verdict on every output the run left for a deferred check, by label."""
    checker = Checker(plan)
    verdicts = {}
    for label, argv, _ in _operation(plan):
        path = _pending_path(workdir, label)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            out = fh.read()
        try:
            verdicts[label] = checker(label.split("-")[0], argv, out)
        except Exception as exc:  # noqa: BLE001
            verdicts[label] = f"{label}: unreadable output {exc!r}"
    return verdicts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run", "check"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.mode == "setup":
        marks = []  # (end of a phase, reference kernel time, end of the kernel)

        def mark():
            t = time.perf_counter()
            marks.append((t, reference.measure("set-up"), time.perf_counter()))

        mark()
        plan = _setup(args.workload, args.seed, args.workdir, mark)
        mark()  # ready
        doc = {"marks": marks, "inputs_sha256": _input_digest(plan)}
    else:
        with open(os.path.join(args.workdir, "plan.json")) as fh:
            plan = json.load(fh)
        if args.mode == "run":
            doc = _run(plan, args.workdir, args.seconds, bool(args.trace))
        else:
            doc = _check_pending(plan, args.workdir)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
