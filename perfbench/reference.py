"""Reference kernels: fixed code that gauges the host's speed at a moment.

The 2-vCPU host this benchmark was tuned on flips between a fast and a
slow state every few seconds, and stays slow for minutes at a time; in
the slow state the same code runs 1.5 to 1.8 times longer.  No statistic
over one run (median, p10, minimum) removes that, because a whole run can
fall in one state.

So every timed call is paired with a reference kernel timed right before
and right after it, in the same process on the same core.  The kernel is
part of the benchmark, not of forestnets, so a change to the program does
not change it.  A call's normalised time is its wall time times
``NOMINAL_S / kernel time``: the time the call would take on a host where
the kernel takes ``NOMINAL_S``.

The kernels mimic the kind of work each workload spends its time on,
because code of different kinds slows by different factors in the slow
state:

- ``generators``: builds Philox generators and draws from them, as the
  Wilson sampler does for every branch (forest-stats, signal-analyze);
- ``interpreter``: a plain Python integer loop, like the dict, list and
  parsing work of archive reads and network builds (signal-query,
  signal-analyze, set-up).
"""

from __future__ import annotations

import time

import numpy as np


def _generators() -> float:
    acc = 0.0
    weights = np.array([0.2, 0.3, 0.5])
    for key in range(150):
        gen = np.random.Generator(np.random.Philox(key=key))
        acc += gen.random() + float(np.cumsum(weights)[1])
    return acc


def _interpreter() -> int:
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    return acc


# the kernels timed for each workload's calls and set-ups
KERNELS = {
    "forest-stats": (_generators,),
    "signal-analyze": (_generators, _interpreter),
    "signal-query": (_interpreter,),
    # interpreter start, imports, input writing and the archive build
    "set-up": (_interpreter,),
}
# kernel time, in seconds, on a quiet core of a 2.0 GHz Xeon (Python
# 3.11, numpy 2.4); the scale of every normalised time
NOMINAL_S = {
    _generators: 2.3e-3,
    _interpreter: 1.0e-3,
}


def nominal(key: str) -> float:
    return sum(NOMINAL_S[k] for k in KERNELS[key])


def measure(key: str) -> float:
    """Wall time of the kernels of ``key`` (a workload or "set-up"): the
    fastest of three runs in a row, which drops a run that an interrupt
    happened to stretch."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for kernel in KERNELS[key]:
            kernel()
        best = min(best, time.perf_counter() - t0)
    return best
