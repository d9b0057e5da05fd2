"""Sampling random rooted spanning forests by Wilson's algorithm.

The sampler runs the jump chain of the continuous-time walk: sitting at a
vertex with exit rate ``w(x)``, the walk is killed with probability
``q / (q + w(x))`` and otherwise jumps to a neighbor proportionally to the
edge weights.  Branches are grown from free vertices in ascending id order,
loop-erased through next-pointer overwriting, and grafted onto the forest:
a killed branch contributes a new root, an absorbed branch attaches to the
already-built part (or to a forced root).

Randomness is counter-based and fully reproducible.  Seeds and sample
indices are integers in ``[0, 2**64)``; anything else raises
``InvalidParams``.  Branch ``b`` of sample ``i`` (the ``b``-th branch
started) reads the Philox4x64-10 stream keyed ``[seed, i]``: its block
``k >= 1`` is the Philox output at counter ``[k, 0, 0, b]``, four 64-bit
words ``x`` that give the uniforms ``(x >> 11) * 2**-53``.  These are the
draws of ``Generator(Philox(key=[seed, i], counter=[0, 0, 0, b])).random()``,
so any sample of any batch can be regenerated on its own.  Block 1 of every
possible branch of a chunk of samples is computed in one vectorized call
into one float64 array, which the walk reads in place; a branch that needs
more uniforms continues from a ``Philox`` set to counter ``[1, 0, 0, b]``,
drawing ``_BUF`` (8) uniforms per refill.  Chunks too small to pay for that
call skip it: each of their branches reads its whole stream from a
``Philox`` set to counter ``[0, 0, 0, b]``.  One ``Philox`` per thread
serves every branch of every call.  A branch sets its state before its
first draw, and ``_sample_parents`` yields only between chunks, so its
generators interleaved in one thread do not disturb each other's streams.
"""

from __future__ import annotations

import operator
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from . import config, oracle
from .errors import InvalidParams, InvalidStart, NumericalError
from .network import (
    Network,
    _gth_measure,
    _strongly_connected,
    edges_between,
    generator_block,
    vertex_id,
    vertex_set,
)

_BUF = 8  # uniforms drawn per refill of a branch's buffer past block 1
_CHUNK = 1 << 14  # (sample, branch) pairs whose block 1 is computed at once
_KERNEL_MIN = 192  # below this many pairs, skipping the kernel call is faster

_MASK64 = (1 << 64) - 1
_LO32 = (1 << 32) - 1
# Philox4x64 round multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)

_local = threading.local()  # each thread's continuation generator


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of ``a * b`` for uint64 arrays ``b``,
    through 32-bit halves, which cannot overflow."""
    a0, a1 = a & _LO32, a >> 32
    b0, b1 = b & _LO32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _LO32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32), a * b


def _philox_uniforms(
    seed: int, index: np.ndarray, branch: np.ndarray, block: int
) -> list[np.ndarray]:
    """The four uniforms of block ``block`` of branch ``branch`` of sample
    ``index``: Philox4x64-10 at counter ``[block, 0, 0, branch]`` under key
    ``[seed, index]``.  ``index`` and ``branch`` are uint64 arrays that
    broadcast together; the result is four float arrays of that shape."""
    zero = np.zeros_like(branch)
    c0, c1, c2, c3 = zero + np.uint64(block), zero, zero, branch
    k0, k1 = seed, index
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return [(x >> 11) * 2.0**-53 for x in (c0, c1, c2, c3)]


def check_stream(seed, first, count: int) -> tuple[int, range]:
    """Validated stream key words: the seed and the sample indices
    ``first .. first + count - 1``, all in ``[0, 2**64)``."""
    try:
        seed, first = operator.index(seed), operator.index(first)
    except TypeError:
        raise InvalidParams("seed and sample index must be integers") from None
    if not 0 <= seed <= _MASK64:
        raise InvalidParams(f"seed must lie in [0, 2**64), got {seed}")
    last = first + max(count, 1) - 1
    if first < 0 or last > _MASK64:
        got = first if last == first else f"{first}..{last}"
        raise InvalidParams(f"sample indices must lie in [0, 2**64), got {got}")
    return seed, range(first, first + max(count, 0))


def _first_blocks(seed: int, indices: range, nb: int) -> memoryview | None:
    """Block 1 of branches ``0 .. nb - 1`` of every sample in ``indices``,
    one flat float64 view: the ``j``-th sample's branch ``b`` reads its
    four uniforms at ``4 * (j * nb + b)``.  ``None`` when the chunk is too
    small to pay for the kernel call."""
    if len(indices) * nb < _KERNEL_MIN:
        return None
    index = np.uint64(indices.start) + np.arange(len(indices), dtype=np.uint64)
    words = _philox_uniforms(
        seed, index[:, None], np.arange(nb, dtype=np.uint64), 1
    )
    return memoryview(np.stack(words, axis=-1).reshape(-1))


def _thread_generator() -> np.random.Generator:
    """This thread's generator over one ``Philox``, made on first use;
    building one costs more than a single-sample draw."""
    try:
        return _local.gen
    except AttributeError:
        _local.gen = np.random.Generator(np.random.Philox(0))
        return _local.gen


@dataclass
class RootedForest:
    """A sampled rooted spanning forest.

    ``parent[x]`` is the out-edge target of ``x``, or ``-1`` when ``x`` is
    a root.  Forced roots always satisfy ``parent[b] == -1``.  The parent
    array is the one representation: roots, each vertex's root, the block
    labels and the blocks are all read off it with array operations.
    :meth:`blocks` lists the blocks in the order of their roots' ids.
    """

    q: float
    forced_roots: tuple[int, ...]
    parent: np.ndarray

    @property
    def n(self) -> int:
        return self.parent.size

    @cached_property
    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent == -1)

    @cached_property
    def root_of(self) -> np.ndarray:
        """Root of the tree containing each vertex, by pointer jumping: a
        tree is at most ``n - 1`` deep, less than ``2**n.bit_length()``."""
        n = self.n
        up = np.where(self.parent == -1, np.arange(n), self.parent)
        for _ in range(n.bit_length()):
            up = up[up]
        return up

    @cached_property
    def partition(self) -> np.ndarray:
        """Block label per vertex; labels index the sorted root list."""
        return np.searchsorted(self.roots, self.root_of)

    def blocks(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.partition == i) for i in range(self.roots.size)]


def check_sampling_args(
    net: Network, q: float, B: Sequence[int] = (), n_samples: int = 1
) -> tuple[float, list[int]]:
    """:func:`oracle.check_q`, with the forced roots as a sorted list;
    also ``InvalidParams`` unless ``n_samples >= 1`` and the draws fit
    the step budget (:func:`check_step_budget`)."""
    q, roots = oracle.check_q(net, q, B)
    if n_samples < 1:
        raise InvalidParams("n_samples must be >= 1")
    check_step_budget(net, [q], n_samples, roots)
    return q, roots.tolist()


def check_step_budget(
    net: Network, q_grid: Sequence[float], n_draws: int, roots: Sequence[int] = ()
) -> None:
    """``InvalidParams`` when ``n_draws`` draws at each killing rate of
    ``q_grid``, with the forced ``roots``, need more than
    ``config.MAX_WALK_STEPS`` walk steps, before any draw.  The count is a
    lower bound, so no run that would end within the budget is refused.
    A draw takes at least one step; with no forced roots its first walk
    runs until it is killed, which takes at least ``w_min / q`` steps on
    average (``w_min`` the least exit rate); and a draw takes at least
    :func:`_two_step_bound` steps on average, which sees a walk trapped
    between vertices whose mutual rates dwarf ``q``.  Each draw counts the
    largest of the three."""
    w_min = float(net.exits.min())
    floor = [1.0 if len(roots) else max(1.0, w_min / q) for q in q_grid]
    per_draw = map(max, floor, _two_step_bound(net, q_grid, roots))
    steps = n_draws * sum(per_draw)
    if steps > config.MAX_WALK_STEPS:
        raise InvalidParams(
            f"sampling needs at least {steps:.3g} walk steps, more than "
            f"the {config.MAX_WALK_STEPS:.3g} allowed"
        )


def _two_step_bound(
    net: Network, q_grid: Sequence[float], roots: Sequence[int] = ()
) -> list[float]:
    """For each ``q`` of ``q_grid``, ``sum_x 1 / (1 - r2(x))`` over the
    vertices ``x`` outside the forced ``roots``, where ``r2(x)`` is the
    chance that the killed jump chain from ``x`` is back at ``x`` after
    exactly two steps.  Each term is at most ``G(x, x)``, the mean number
    of visits to ``x``, so the sum is at most the mean number of steps of
    a draw, ``sum_x G(x, x)``.  With no subtraction,

        1 - r2(x) = [q + sum_y w(x, y) r(y, x)] / (q + w(x)),
        r(y, x) = (q + s(y, x)) / (q + w(y)),

    where ``s(y, x)`` is the sum of ``y``'s rates to vertices other than
    ``x``, summed from both ends of ``y``'s sorted rates, never as a
    difference.  A forced root ``y`` never returns: ``r(y, x) = 1``.  The
    ratio ``r``, at most 1, is formed before it multiplies ``w(x, y)``.
    Every sum is at most ``q + w_max``; where that nears the float range,
    all terms are halved, so none overflows.  One pass over the edges per
    ``q``."""
    n, src, dst = net.n, net.src, net.dst
    c = 0.5 if max(q_grid, default=0.0) + net.w_max > 1e308 else 1.0
    w, exits = c * net.w, c * net.exits
    at = np.searchsorted(src, np.arange(n + 1))
    col = np.arange(src.size) - at[src] + 1  # a zero column on each side
    rows = np.zeros((n, np.diff(at).max(initial=0) + 2))
    rows[src, col] = w
    before = np.cumsum(rows, axis=1)[src, col - 1]
    after = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1][src, col + 1]
    # for each edge (x, y), s(y, x): y's rates but its edge to x
    key, rkey = src * n + dst, dst * n + src
    back = np.minimum(np.searchsorted(key, rkey), key.size - 1)
    s = np.where(key[back] == rkey, (before + after)[back], exits[dst])
    free = np.ones(n, dtype=bool)
    free[np.asarray(roots, dtype=np.int64)] = False
    out = []
    # a halved subnormal rate may round to 0: a term that comes out 0 / 0
    # is left out, one that comes out x / 0 counts as endless
    with np.errstate(divide="ignore", invalid="ignore"):
        for q in q_grid:
            h = c * q
            r = np.where(free[dst], (h + s) / (h + exits[dst]), 1.0)
            stay = h + np.bincount(src, w * r, minlength=n)
            out.append(float(np.nansum(((h + exits) / stay)[free])))
    return out


def _sample_parents(
    net: Network,
    q: float,
    roots: list[int],
    seed: int,
    first: int,
    count: int,
    start: int | None = None,
) -> Iterator[np.ndarray]:
    """The one sampling driver: yields the forests of samples ``first ..
    first + count - 1`` as parent arrays, ``parent[x] == -1`` at roots, one
    ``(chunk, n)`` int64 array per chunk of samples.

    With ``start`` given only the first branch is grown, from ``start``;
    following ``parent`` from ``start`` then traces its loop erasure.
    """
    seed, indices = check_stream(seed, first, count)
    targets, cumw, rates = net.adjacency
    kill = [q / (q + r) for r in rates]
    n = net.n
    base = bytearray(n)
    for b in roots:
        base[b] = 1
    gen = _thread_generator()
    bitgen = gen.bit_generator
    # the Philox state a branch continues from: counter [done, 0, 0, b]
    # under key [seed, i], its buffer spent so the next draw computes a block
    counter, key = [0, 0, 0, 0], [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    starts = range(n) if start is None else [start]
    nb = sum(1 for x in starts if not base[x])  # at most one branch each
    per = max(1, _CHUNK // max(nb, 1))
    nxt = [-1] * n
    for lo in range(0, len(indices), per):
        chunk = indices[lo:lo + per]
        blocks = _first_blocks(seed, chunk, nb)
        done = 0 if blocks is None else 1  # blocks of a branch read in place
        rows = []
        at = 0  # this sample's first uniform in blocks
        for i in chunk:
            in_forest = bytearray(base)
            parent = [-1] * n
            branch = 0
            for x0 in starts:
                if in_forest[x0]:
                    continue
                # walk from x0 until killed or absorbed, overwriting
                # next-pointers; buf is blocks until the first refill
                buf, pos = blocks, at + 4 * branch
                end = pos + 4 * done
                v = x0
                while True:
                    if pos == end:
                        if buf is blocks:
                            counter[0], counter[3], key[1] = done, branch, i
                            bitgen.state = state
                        buf = gen.random(_BUF).tolist()
                        pos, end = 0, _BUF
                    u = buf[pos]
                    pos += 1
                    pk = kill[v]
                    if u < pk:
                        in_forest[v] = 1  # a new root
                        terminal = v
                        break
                    r = (u - pk) / (1.0 - pk)
                    cw = cumw[v]  # nondecreasing: the first cw[k] > r
                    y = targets[v][bisect_right(cw, r, 0, len(cw) - 1)]
                    nxt[v] = y
                    if in_forest[y]:
                        terminal = y
                        break
                    v = y
                branch += 1
                # graft the loop erasure: retrace the next-pointers
                v = x0
                while v != terminal:
                    in_forest[v] = 1
                    parent[v] = nxt[v]
                    v = nxt[v]
            rows.append(parent)
            at += 4 * nb
        yield np.array(rows, dtype=np.int64)


def wilson_sample(
    net: Network,
    q: float,
    B: Sequence[int] = (),
    *,
    seed: int,
    sample_index: int = 0,
) -> RootedForest:
    """Draw one random spanning forest with killing rate ``q`` and forced
    roots ``B``.  Identical ``(seed, sample_index)`` always reproduces the
    same forest."""
    q, roots = check_sampling_args(net, q, B)
    (parent,) = next(_sample_parents(net, q, roots, seed, sample_index, 1))
    return RootedForest(q=q, forced_roots=tuple(roots), parent=parent)


def loop_erased_walk(
    net: Network,
    q: float,
    start: int,
    B: Sequence[int] = (),
    *,
    seed: int,
    sample_index: int = 0,
) -> list[int]:
    """Loop erasure of one killed walk from ``start`` (the first branch of a
    Wilson sample).  The path ends inside ``B`` when absorbed, else at the
    kill position."""
    q, roots, start = check_walk_args(net, q, start, B)
    (parent,) = next(
        _sample_parents(net, q, roots, seed, sample_index, 1, start=start)
    )
    parent = parent.tolist()
    path = [start]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    return path


def check_walk_args(
    net: Network, q: float, start: int, B: Sequence[int] = ()
) -> tuple[float, list[int], int]:
    """:func:`check_sampling_args` and the int ``start`` stands for, or
    ``InvalidParams`` unless ``start`` is a vertex and ``InvalidStart`` if
    it is a forced root."""
    q, roots = check_sampling_args(net, q, B)
    start = vertex_id(start, "start vertex")
    if not (0 <= start < net.n):
        raise InvalidParams(f"start vertex {start} outside 0..{net.n - 1}")
    if start in roots:
        raise InvalidStart(f"walk cannot start on a forced root: {start}")
    return q, roots, start


# ---------------------------------------------------------------------------
# batch statistics


@dataclass
class SampleStats:
    """Aggregates over a batch of forest samples."""

    n_samples: int
    root_count_hist: dict[int, int]
    root_freq: np.ndarray
    edge_freq: dict[tuple[int, int], float]
    mean_roots: float
    chi2_stat: float
    chi2_pvalue: float


def _chi2_against_law(
    hist: dict[int, int], law: oracle.RootCountLaw, n_samples: int
) -> tuple[float, float]:
    """Chi-square of an observed root-count histogram against the exact law,
    merging adjacent cells until every expected count is at least 5."""
    expected = law.pmf * n_samples
    observed = np.array(
        [hist.get(int(k), 0) for k in law.counts], dtype=float
    )
    cells: list[tuple[float, float]] = []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            cells.append((acc_o, acc_e))
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0 or acc_o > 0:
        if cells:
            o0, e0 = cells[-1]
            cells[-1] = (o0 + acc_o, e0 + acc_e)
        else:
            cells.append((acc_o, acc_e))
    if len(cells) < 2:
        return 0.0, 1.0
    obs = np.array([c[0] for c in cells])
    exp = np.array([c[1] for c in cells])
    exp *= obs.sum() / exp.sum()  # remove float drift in total mass
    # scipy.stats.chisquare, without the cost of importing scipy.stats;
    # scipy.special too is imported only by the one call that needs it
    import scipy.special

    stat = ((obs - exp) ** 2 / exp).sum()
    return float(stat), float(scipy.special.chdtrc(obs.size - 1, stat))


def empirical_stats(
    net: Network,
    q: float,
    B: Sequence[int] = (),
    n_samples: int = 1000,
    *,
    seed: int,
) -> SampleStats:
    """Sample ``n_samples`` forests and aggregate root/edge frequencies plus
    a chi-square comparison of the root-count histogram with the exact law.
    Sample ``i`` consumes the substream keyed ``(seed, i)``.
    """
    q, roots = check_sampling_args(net, q, B, n_samples)
    n = net.n
    # counts[x, y] = times parent of x was y; column n counts "x is root"
    cells = np.arange(n) * (n + 1)
    counts = np.zeros(n * (n + 1), dtype=np.int64)
    hist_arr = np.zeros(n + 1, dtype=np.int64)
    for parents in _sample_parents(net, q, roots, seed, 0, n_samples):
        # parent -1 lands in column n
        counts += np.bincount(
            (cells + parents % (n + 1)).ravel(), minlength=counts.size
        )
        hist_arr += np.bincount((parents == -1).sum(axis=1), minlength=n + 1)
    counts = counts.reshape(n, n + 1)

    root_freq = counts[:, n] / n_samples
    xs, ys = np.nonzero(counts[:, :n])
    edge_freq = {
        (x, y): c / n_samples
        for x, y, c in zip(xs.tolist(), ys.tolist(), counts[xs, ys])
    }
    hist = {int(k): int(c) for k, c in enumerate(hist_arr) if c > 0}

    mean_roots = float(
        sum(k * c for k, c in hist.items())
    ) / n_samples
    law = oracle.root_count_law(net, q, roots)
    stat, pvalue = _chi2_against_law(hist, law, n_samples)
    return SampleStats(
        n_samples=n_samples,
        root_count_hist=hist,
        root_freq=root_freq,
        edge_freq=edge_freq,
        mean_roots=mean_roots,
        chi2_stat=stat,
        chi2_pvalue=pvalue,
    )


# ---------------------------------------------------------------------------
# prescribed number of roots


@dataclass
class MRootsResult:
    """Outcome of the feedback iteration targeting ``m`` roots."""

    forest: RootedForest
    q: float
    iterations: int
    converged: bool


def sample_with_m_roots(
    net: Network,
    m: int,
    B: Sequence[int] = (),
    *,
    seed: int,
    q0: float | None = None,
    max_iters: int = 30,
) -> MRootsResult:
    """Iterate Wilson samples, retargeting ``q`` until the root count lands
    in the window ``m +- 2 sqrt(m)``.

    Starting from ``q0`` (default ``w_max``), each rejection rescales
    ``q <- q * m / |roots|``, clamped to ``[1e-12, 1e12] * w_max``.  If the
    window is never hit the best forest seen so far is returned with
    ``converged=False``.
    """
    roots, q = check_m_roots_args(net, m, B, q0, max_iters)
    lo = m - 2.0 * np.sqrt(m)
    hi = m + 2.0 * np.sqrt(m)

    best: RootedForest | None = None
    best_gap = np.inf
    best_q = q
    for it in range(max_iters):
        forest = wilson_sample(net, q, roots, seed=seed, sample_index=it)
        k = forest.roots.size
        gap = abs(k - m)
        if gap < best_gap:
            best, best_gap, best_q = forest, gap, q
        if lo <= k <= hi:
            return MRootsResult(forest=forest, q=q, iterations=it + 1, converged=True)
        q = q * m / max(k, 1)
        q = float(np.clip(q, 1e-12 * net.w_max, 1e12 * net.w_max))
    assert best is not None
    return MRootsResult(forest=best, q=best_q, iterations=max_iters, converged=False)


def check_m_roots_args(
    net: Network,
    m: int,
    B: Sequence[int] = (),
    q0: float | None = None,
    max_iters: int = 30,
) -> tuple[list[int], float]:
    """The forced roots of :func:`sample_with_m_roots` as a sorted list and
    its first ``q`` (``q0``, by default ``w_max``); ``InvalidParams``
    unless ``m`` is a reachable root count, ``max_iters >= 1``, that
    ``q`` is positive and finite and its first draw fits the step budget
    (:func:`check_step_budget`)."""
    _, roots = oracle.check_q(net, 1.0, B)
    if not (max(1, roots.size) <= m <= net.n):
        raise InvalidParams(f"target root count m={m} outside [1, {net.n}]")
    if max_iters < 1:
        raise InvalidParams("max_iters must be >= 1")
    q = float(q0) if q0 is not None else net.w_max
    if q <= 0 or not np.isfinite(q):
        raise InvalidParams("q0 must be positive and finite")
    check_step_budget(net, [q], 1, roots)
    return roots.tolist(), q


# ---------------------------------------------------------------------------
# conditional law of roots given the tree partition


@dataclass
class PartitionEquilibriumEntry:
    blocks: tuple[tuple[int, ...], ...]
    count: int
    max_tv: float


@dataclass
class PartitionEquilibriumReport:
    n_samples: int
    min_count: int
    entries: list[PartitionEquilibriumEntry]

    @property
    def max_tv(self) -> float:
        return max((e.max_tv for e in self.entries), default=0.0)


def restricted_equilibrium(net: Network, block: Sequence[int]) -> np.ndarray:
    """Invariant measure of the walk restricted to ``block`` (jumps leaving
    the block suppressed).  When that walk is strongly connected, as on
    every block of a reversible network, it is the exact GTH measure of
    the block's generator (:func:`network._gth_measure`); otherwise the
    least-squares solution of ``mu L_block = 0``, ``sum mu = 1``, checked
    nonnegative.  ``NumericalError`` unless it comes out finite."""
    idx = vertex_set(net.n, block, "block")
    if not idx.size:
        raise InvalidParams("empty block")
    k = idx.size
    if k == 1:
        return np.array([1.0])
    sub = generator_block(net, idx)
    s, t, _ = edges_between(net, idx)
    with np.errstate(all="ignore"):  # a result that is not finite is refused
        if _strongly_connected(k, s, t):
            mu = _gth_measure(sub)  # the off-diagonal rates alone are read
        else:
            np.fill_diagonal(sub, 0.0)
            sub -= np.diag(sub.sum(axis=1))
            a = np.vstack([sub.T, np.ones(k)])
            b = np.zeros(k + 1)
            b[-1] = 1.0
            mu, *_ = np.linalg.lstsq(a, b, rcond=None)
            if mu.min() < -1e-10:
                raise NumericalError("restricted equilibrium came out negative")
            mu = np.clip(mu, 0.0, None)
            mu = mu / mu.sum()
    if not np.isfinite(mu).all():
        raise NumericalError("restricted equilibrium is not finite")
    return mu


def conditional_root_equilibrium_check(
    net: Network,
    q: float,
    n_samples: int,
    *,
    seed: int,
    min_count: int = 100,
) -> PartitionEquilibriumReport:
    """Empirical check that, conditionally on the tree partition, each
    block's root follows the restricted-walk equilibrium of that block.

    Samples forests, groups them by their tree partition alone, whichever
    vertex each block's root is, and keeps one tally of root vertices per
    partition.  For every partition observed at least ``min_count`` times
    it compares the root frequency inside each block with
    ``restricted_equilibrium`` and reports the worst total-variation gap.
    Entries come sorted by their blocks: each block ascending, each
    partition's blocks listed by their least vertex.
    """
    q, roots = check_sampling_args(net, q, n_samples=n_samples)
    # per partition, its forest count and the tally of its root vertices
    seen: dict[tuple[tuple[int, ...], ...], list] = {}
    for parents in _sample_parents(net, q, roots, seed, 0, n_samples):
        # equal forests give equal partitions and roots: group them first
        forests, repeats = np.unique(parents, axis=0, return_counts=True)
        for parent, c in zip(forests, repeats.tolist()):
            forest = RootedForest(q=q, forced_roots=(), parent=parent)
            key = tuple(sorted(tuple(b.tolist()) for b in forest.blocks()))
            rec = seen.setdefault(key, [0, Counter()])
            rec[0] += c
            for r in forest.roots.tolist():
                rec[1][r] += c

    entries = []
    for key, (count, tally) in sorted(seen.items()):
        if count < min_count:
            continue
        gaps = []
        for block in key:
            want = restricted_equilibrium(net, block)
            got = np.array([tally[v] for v in block], dtype=float) / count
            gaps.append(0.5 * float(np.abs(got - want).sum()))
        # np.max keeps a NaN, where max(0.0, nan) would give 0.0
        worst = float(np.max(gaps))
        entries.append(
            PartitionEquilibriumEntry(blocks=key, count=count, max_tv=worst)
        )
    return PartitionEquilibriumReport(
        n_samples=n_samples, min_count=min_count, entries=entries
    )


# ---------------------------------------------------------------------------
# Monte-Carlo tuning estimates


@dataclass
class TuningRecord:
    q: float
    w_tilde: float
    one_over_beta_tilde: float
    objective: float
    mean_roots: float


def default_q_grid(net: Network) -> list[float]:
    """Geometric grid ``w_max * 2**-k`` for ``k = 0..6``."""
    return [net.w_max * 2.0 ** (-k) for k in range(7)]


def check_tuning_args(
    net: Network, q_grid: Sequence[float] | None, n_samples: int
) -> list[float]:
    """The grid of :func:`estimate_tuning` as floats (``default_q_grid``
    when ``None``); ``InvalidParams`` unless it is nonempty, every entry is
    positive and finite, ``n_samples >= 1`` and the scan fits the step
    budget (:func:`check_step_budget`)."""
    grid = [float(x) for x in (default_q_grid(net) if q_grid is None else q_grid)]
    if not grid:
        raise InvalidParams("q grid must not be empty")
    if any(x <= 0 or not np.isfinite(x) for x in grid):
        raise InvalidParams("q grid entries must be positive and finite")
    if n_samples < 1:
        raise InvalidParams("n_samples must be >= 1")
    check_step_budget(net, grid, n_samples)
    return grid


def estimate_tuning(
    net: Network,
    q_grid: Sequence[float] | None = None,
    n_samples: int = 16,
    *,
    seed: int,
) -> list[TuningRecord]:
    """Monte-Carlo tuning scan.

    For each candidate ``q``: ``w_tilde = q * E[|V - R| / (1 + |R|)]``
    estimates the reduced network's maximal rate, and
    ``1/beta_tilde = E[|V - R| / |R|] / w_max`` estimates the inverse
    return-speed; their product is the objective to minimize.  Grid point
    ``g`` uses sample indices ``g * n_samples .. (g + 1) * n_samples - 1``.
    """
    grid = check_tuning_args(net, q_grid, n_samples)
    n = net.n
    records = []
    for gi, q in enumerate(grid):
        ratio_w = 0.0
        ratio_b = 0.0
        mean_r = 0.0
        for parents in _sample_parents(
            net, q, [], seed, gi * n_samples, n_samples
        ):
            for k in (parents == -1).sum(axis=1).tolist():
                ratio_w += (n - k) / (1.0 + k)
                ratio_b += (n - k) / k
                mean_r += k
        w_tilde = q * ratio_w / n_samples
        inv_beta = ratio_b / n_samples / net.w_max
        records.append(TuningRecord(
            q=q,
            w_tilde=w_tilde,
            one_over_beta_tilde=inv_beta,
            objective=w_tilde * inv_beta,
            mean_roots=mean_r / n_samples,
        ))
    return records


def chosen_tuning(records: Sequence[TuningRecord]) -> TuningRecord:
    """The record a tuning scan chooses: the least objective, and of
    equal objectives the largest ``q``."""
    return min(records, key=lambda r: (r.objective, -r.q))
