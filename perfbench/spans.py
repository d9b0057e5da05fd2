"""Span recorder that instruments forestnets from outside.

``install`` wraps the public functions the per-layer metrics need.  A
function is replaced in every ``forestnets`` module that binds it, so calls
through ``from .x import f`` names and through ``module.f`` attributes are
both seen.  ``Network.__init__`` is wrapped on the class, which catches
every network build whichever helper made it.

Each span records its name, start, end, parent span and the id of the CLI
call (operation) it belongs to.  Spans stay in memory; metrics are derived
from them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# "module.function" for each wrapped forestnets function; the span name too
WRAPPED = [
    "cli.main",
    "sampler.empirical_stats",
    "sampler.estimate_tuning",
    "sampler.wilson_sample",
    "oracle.green",
    "oracle.hitting_times",
    "oracle.root_count_law",
    "coarsegrain.schur_reduce",
    "coarsegrain.schur_complement",
    "coarsegrain.beta_gamma",
    "wavelets.analyze_level",
    "wavelets.build_pyramid",
    "wavelets.reconstruct_level",
    "wavelets.compression_curve",
    "wavelets.stability_bounds",
    "fileio.write_pyramid",
    "fileio.read_pyramid",
    "fileio.read_network",
    "fileio.read_signal",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    op: int  # id of the CLI call
    work: int  # draws for sampler spans, vertices for network builds


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self.active = False  # record only while a CLI call runs
        self._stack: list[int] = []

    def wrap(self, fn, name: str, work=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.op, 0)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if work is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.work = work(bound.arguments)

        return traced


def _tuning_draws(a) -> int:
    from forestnets import sampler

    grid = a["q_grid"] if a["q_grid"] is not None else sampler.default_q_grid(a["net"])
    return len(grid) * int(a["n_samples"])


_WORK = {
    "sampler.empirical_stats": lambda a: int(a["n_samples"]),
    "sampler.estimate_tuning": _tuning_draws,
    "sampler.wilson_sample": lambda a: 1,
}


def install(recorder: Recorder) -> None:
    """Patch every forestnets binding of the wrapped functions."""
    from forestnets import network

    originals = {}
    for name in WRAPPED:
        mod_name, attr = name.split(".")
        module = importlib.import_module("forestnets." + mod_name)
        originals[name] = getattr(module, attr)
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "forestnets" or name.startswith("forestnets."))
    ]
    for name, original in originals.items():
        traced = recorder.wrap(original, name, _WORK.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    init = network.Network.__init__
    network.Network.__init__ = recorder.wrap(
        init, "network.build", lambda a: int(a["n"])
    )


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part its child spans cover (children of one
    span never overlap: every workload runs single-threaded)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def op_totals(
    spans: list[Span], group: dict[int, int]
) -> dict[int, dict[str, float]]:
    """Inclusive time, self time, call count and work of every span name,
    summed per workload operation; ``group`` maps a CLI call's id to the
    operation it is part of."""
    selfs = _self_times(spans)
    ops: dict[int, dict[str, float]] = {}
    for i, s in enumerate(spans):
        acc = ops.setdefault(group[s.op], {})
        acc[s.name + ":calls"] = acc.get(s.name + ":calls", 0) + 1
        acc[s.name + ":self"] = acc.get(s.name + ":self", 0.0) + selfs[i]
        acc[s.name + ":work"] = acc.get(s.name + ":work", 0) + s.work
        acc[s.name + ":incl"] = acc.get(s.name + ":incl", 0.0) + (s.end - s.start)
    return ops


def _draw_us(t: dict[str, float]) -> float:
    """Sampler time per draw, the draws implied by the call arguments."""
    names = ("sampler.empirical_stats", "sampler.estimate_tuning", "sampler.wilson_sample")
    draws = sum(t.get(n + ":work", 0) for n in names)
    if not draws:
        return 0.0
    return 1e6 * sum(t.get(n + ":incl", 0.0) for n in names) / draws


# metric -> (unit, value, the end-to-end metric it should move); the value
# is a "span:field" key into one operation's totals or a function of them
PER_LAYER = {
    "sampler.empirical_stats_s": ("s", "sampler.empirical_stats:incl", "draws_per_s on forest-stats"),
    "sampler.draw_us": ("us", _draw_us, "draws_per_s on forest-stats; analyze_s"),
    "sampler.estimate_tuning_s": ("s", "sampler.estimate_tuning:incl", "analyze_s; none on signal-query"),
    "sampler.tuning_draws": ("count", "sampler.estimate_tuning:work", "analyze_s; none on signal-query"),
    "sampler.wilson_sample_calls": ("count", "sampler.wilson_sample:calls", "analyze_s; none on signal-query"),
    "network.build_s": ("s", "network.build:incl", "analyze_s; all signal-query metrics; none on forest-stats"),
    "network.builds": ("count", "network.build:calls", "analyze_s; all signal-query metrics"),
    "network.build_vertices": ("count", "network.build:work", "analyze_s; all signal-query metrics"),
    "oracle.green_s": ("s", "oracle.green:incl", "analyze_s, bounds_s"),
    "oracle.green_calls": ("count", "oracle.green:calls", "analyze_s, bounds_s"),
    "oracle.hitting_times_s": ("s", "oracle.hitting_times:incl", "bounds_s"),
    "oracle.root_count_law_s": ("s", "oracle.root_count_law:incl", "draws_per_s, slightly"),
    "coarsegrain.schur_reduce_s": ("s", "coarsegrain.schur_reduce:self", "analyze_s, bounds_s"),
    "coarsegrain.schur_complement_s": ("s", "coarsegrain.schur_complement:incl", "compress_s, bounds_s"),
    "coarsegrain.schur_complement_calls": ("count", "coarsegrain.schur_complement:calls", "compress_s, bounds_s"),
    "coarsegrain.beta_gamma_s": ("s", "coarsegrain.beta_gamma:incl", "bounds_s"),
    "coarsegrain.beta_gamma_calls": ("count", "coarsegrain.beta_gamma:calls", "bounds_s"),
    "wavelets.analyze_level_s": ("s", "wavelets.analyze_level:incl", "analyze_s"),
    "wavelets.build_pyramid_s": ("s", "wavelets.build_pyramid:self", "analyze_s"),
    "wavelets.reconstruct_level_s": ("s", "wavelets.reconstruct_level:incl", "compress_s, reconstruct_s"),
    "wavelets.reconstruct_level_calls": ("count", "wavelets.reconstruct_level:calls", "compress_s, reconstruct_s"),
    "wavelets.compression_curve_s": ("s", "wavelets.compression_curve:incl", "compress_s"),
    "wavelets.stability_bounds_s": ("s", "wavelets.stability_bounds:self", "bounds_s"),
    "fileio.write_pyramid_s": ("s", "fileio.write_pyramid:incl", "analyze_s, peak_rss_mb"),
    "fileio.archive_bytes": ("bytes", "archive_bytes", "analyze_s, peak_rss_mb"),
    "fileio.read_pyramid_s": ("s", "fileio.read_pyramid:incl", "every signal-query metric"),
    "fileio.read_network_s": ("s", "fileio.read_network:incl", "the call it occurs in"),
    "fileio.read_signal_s": ("s", "fileio.read_signal:incl", "the call it occurs in"),
    "cli.self_s": ("s", "cli.main:self", "every end-to-end metric"),
}


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one operation."""
    return {
        name: value(totals) if callable(value) else totals.get(value, 0)
        for name, (_, value, _) in PER_LAYER.items()
    }
