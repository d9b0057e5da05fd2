"""Weighted directed networks viewed as continuous-time Markov generators.

A network on vertices ``0..n-1`` is a set of directed edges ``(x, y, w)``
with strictly positive weights and no self loops.  Its generator is the
matrix ``L`` with ``L(x, y) = w(x, y)`` off the diagonal and
``L(x, x) = -sum_y w(x, y)``, i.e. rows sum to zero.  All statistics in
this package (forest laws, Green's functions, coarse-graining, wavelets)
are expressed through ``L``, its invariant measure ``mu`` and the maximal
exit rate ``w_max``.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse import csc_array, csr_array, issparse
from scipy.sparse.csgraph import breadth_first_order, connected_components

from . import config
from .errors import (
    DuplicateEdge,
    InvalidParams,
    NonPositiveWeight,
    NotIrreducible,
    NumericalError,
    SingularSystem,
)

Edge = tuple[int, int, float]

#: the density rule: a matrix of at least ``SPARSE_MIN_SIZE`` rows with at
#: most ``SPARSE_DENSITY`` of its entries nonzero is stored sparse, and a
#: block so stored is factored by SuperLU.
#: Chosen on the Schur chains of seeded 10x10 to 40x40 grids (kept shares
#: 35-80%, one BLAS thread, block build included), SuperLU's time over the
#: dense time is: 0.05-0.78 for two-column killed-kernel solves and
#: 0.27-0.61 for Schur complements below 2% density from 128 rows up;
#: 0.3-2.1 between 2% and 6% (above 1 only below 270 rows, by at most
#: 0.8 ms); 1.1-7.4 above 9% density or below 100 rows.  Near the
#: boundary it errs both ways: Schur complements of 90-105 dropped rows
#: at 2-6% take 0.56-0.87, a killed-kernel solve at 676 rows and 14% 0.75.
SPARSE_MIN_SIZE = 128
SPARSE_DENSITY = 0.05


def sparse_pays(size: int, nnz: int) -> bool:
    """Whether a ``size x size`` matrix with ``nnz`` nonzero entries is
    stored and factored sparsely: the one density rule
    (``SPARSE_MIN_SIZE``, ``SPARSE_DENSITY``)."""
    return size >= SPARSE_MIN_SIZE and nnz <= SPARSE_DENSITY * size * size


class Network:
    """Irreducible weighted directed network with cached spectra-free data.

    A network keeps its edge arrays and its exit rates; the dense
    ``n x n`` generator ``L`` is formed only when something reads it.
    It is made one of two ways.  Input (edge files, an archive's stored
    edge lists, Python triples) comes as an edge list, and every row is
    validated; the exit rates are the row sums of ``L``, bit for bit
    (:func:`_row_sums`).  A level derived from a network comes as a rate
    matrix its maker has already checked (:meth:`of_rates`): its nonzero
    entries are taken as the edges as they are.  A dense matrix becomes
    the generator itself, with no second ``n x n`` array; a sparse one
    leaves ``L`` to its first read.  A Schur reduction or a
    sparsification hands over the exit rates its invariance check summed
    with the rates, so they are summed once.
    Either way the reachability, exit-rate and measure checks below run.
    Reachability is one strong-components test
    (:func:`_strongly_connected`); a breadth-first search runs only for
    the tree of the reversible measure and, after a failed test, to name
    the first vertex the forward (then the backward) search from 0 misses.

    Parameters
    ----------
    edges :
        iterable of ``(src, dst, weight)`` triples, or an ``(m, 3)`` array
        of them; weights must be finite and strictly positive, ordered
        pairs must be unique, no self loops.  Or, from :meth:`of_rates`,
        checked rates.
    n :
        vertex count, at most ``config.MAX_VERTICES`` (checked before any
        edge is read).  Vertex ids must be integers in ``0..n-1`` and the
        directed graph must be strongly connected.
    mu :
        the invariant probability measure when the caller already has it
        and has checked it, as :class:`coarsegrain.ReducedNetwork` does
        for ``mu(. | kept)``; it must be positive and is used instead of
        solving for one.

    Otherwise ``mu`` is solved for.  A reversible network gets it in
    ``O(m)`` by detailed balance down the forward breadth-first tree
    (:func:`_tree_measure`), taken only when it balances every edge to
    within the rounding of the tree products; every other network, and a
    near-reversible one, gets it by GTH state reduction in ``O(n^3)``
    (:func:`_gth_measure`).  Both are exact to a few units in the last
    place entrywise on any weight range (birth-death chains over six
    decades: within 22.5 eps relative at ``n = 1000`` on the tree, 23 by
    GTH), and both results are checked positive and invariant.

    Attributes
    ----------
    n : int
    src, dst : int64 arrays, edge endpoints sorted by (src, dst)
    w : float64 array, the weights of those edges
    edges : tuple of (int, int, float), the same edges as Python values
    exits : float64 array, the exit rates ``-L(x, x)``
    L : ndarray, the dense ``n x n`` generator, formed on first read (a
        network made from dense rates has it from the start); readers of
        single entries use :meth:`rate`, of blocks :func:`generator_block`
    generator : ``L`` as products with it read it, built on first read:
        a CSC matrix when the density rule (:func:`sparse_pays`) picks it,
        else ``L`` itself; the one generator a network keeps for products
    w_max : float, maximal exit rate ``max_x -L(x, x)``
    mu : ndarray, invariant probability measure (``mu @ L == 0``)
    reversible : bool, detailed balance of ``mu`` and the weights,
        computed on first read (no query path reads it)
    """

    def __init__(
        self,
        edges: Iterable[Edge] | np.ndarray,
        n: int,
        mu: np.ndarray | None = None,
    ) -> None:
        if n < 1:
            raise InvalidParams("network needs at least one vertex")
        if n > config.MAX_VERTICES:
            raise InvalidParams(
                f"network has {n} vertices, more than the supported "
                f"{config.MAX_VERTICES}"
            )
        self.n = n
        rates = None
        if isinstance(edges, _CheckedRates):
            rates, exits = edges
            if issparse(rates):
                self.src, self.dst, self.w = _sparse_entries(rates)
                rates = None
            else:
                # row-major order is (src, dst) order; the generator is
                # built in the rate matrix itself, whose diagonal is zero
                self.src, self.dst = np.nonzero(rates)
                self.w = rates[self.src, self.dst]
        else:
            self.src, self.dst, self.w = _sorted_edges(edge_array(edges), n)
            exits = _row_sums(n, self.src, self.dst, self.w)

        if n > 1 and not _strongly_connected(n, self.src, self.dst):
            raise NotIrreducible(_unreachable(n, self.src, self.dst))

        if not np.isfinite(exits).all():
            x = int(np.flatnonzero(~np.isfinite(exits))[0])
            raise InvalidParams(f"exit rate of vertex {x} overflows")
        self.exits = exits
        if rates is not None:
            rates[np.arange(n), np.arange(n)] = -exits
            self.L = rates

        if n == 1:
            # single vertex: null generator, trivial measure
            self.w_max = 0.0
            self.mu = np.array([1.0])
            return

        self.w_max = float(exits.max())
        if mu is None:
            self.mu = self._invariant_measure()
        elif len(mu) == n and np.all(mu > 0):
            self.mu = mu
        else:
            raise InvalidParams(f"given measure is not positive on {n} vertices")

    @classmethod
    def of_rates(
        cls, rates: np.ndarray, mu: np.ndarray, exits: np.ndarray | None = None
    ) -> Network:
        """The network whose edges are the nonzero entries of the square
        rate matrix ``rates`` (an array, or a SciPy sparse matrix) and
        whose measure is ``mu``, as a Schur reduction or a sparsification
        makes them: entries that their maker
        has checked to be finite and nonnegative, with a zero diagonal, and
        a measure it has checked invariant for them.  ``exits`` are the row
        sums of ``rates`` when the maker has summed them already, as its
        invariance check does; otherwise they are summed here
        (:func:`exit_rates`).  The entries
        are not validated again as an edge list would be; the network comes
        out exactly as from the edge list of those entries.

        An array ``rates`` is taken over, not copied: its diagonal is set
        to minus the exit rates and it becomes the network's ``L``, so a
        caller hands over a float64 C-contiguous array that it does not
        keep.  A sparse ``rates`` gives up its entries as the edge arrays,
        and ``L`` waits for its first read.
        """
        if exits is None:
            exits = exit_rates(rates)
        return cls(_CheckedRates(rates, exits), rates.shape[0], mu)

    # -- representation ------------------------------------------------

    @cached_property
    def L(self) -> np.ndarray:
        """The dense ``n x n`` generator, formed from the edge arrays and
        the exit rates on first read and kept."""
        L = np.zeros((self.n, self.n))
        L[self.src, self.dst] = self.w
        L[np.arange(self.n), np.arange(self.n)] = -self.exits
        return L

    @cached_property
    def generator(self) -> np.ndarray | csc_array:
        """``L`` as its products read it, built once: a CSC matrix of the
        edge arrays and the exit rates when :func:`sparse_pays` for it,
        else ``L`` itself."""
        n, ids = self.n, np.arange(self.n)
        if not sparse_pays(n, self.w.size + n):
            return self.L
        data = np.concatenate([self.w, -self.exits])
        at = np.concatenate([self.src, ids]), np.concatenate([self.dst, ids])
        return csc_array((data, at), shape=(n, n))

    @cached_property
    def _keys(self) -> np.ndarray:
        return self.src * self.n + self.dst  # ascending, as the edges are sorted

    def rate(self, x, y) -> np.ndarray:
        """``L(x, y)`` for vertex ids ``x != y`` (arrays of them, or
        scalars): the weight of the edge ``(x, y)``, or 0 where there is
        none, looked up in the sorted edge keys."""
        want = np.asarray(x) * self.n + np.asarray(y)
        if not self._keys.size:
            return np.zeros(want.shape)
        at = np.minimum(np.searchsorted(self._keys, want), self._keys.size - 1)
        return np.where(self._keys[at] == want, self.w[at], 0.0)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.src.tolist(), self.dst.tolist(), self.w.tolist()))

    @cached_property
    def adjacency(self) -> tuple[list[list[int]], list[list[float]], list[float]]:
        """Per-vertex jump data as the Python lists the sampler walks:
        (targets, cumulative jump probs, exit rates)."""
        bounds = np.searchsorted(self.src, np.arange(self.n + 1))
        rates = np.zeros(self.n)
        tarr: list[list[int]] = []
        cumw: list[list[float]] = []
        for x in range(self.n):
            lo, hi = bounds[x], bounds[x + 1]
            wx = self.w[lo:hi]
            rates[x] = wx.sum()
            tarr.append(self.dst[lo:hi].tolist())
            c = np.cumsum(wx)
            cumw.append((c / c[-1]).tolist())
        return tarr, cumw, rates.tolist()

    @cached_property
    def reversible(self) -> bool:
        """Detailed balance of ``mu`` and the weights: every edge's flow
        ``mu(x) w(x, y)`` matches its reverse within ``STRUCTURAL_TOL``
        relative (at least 1).  Computed when first read."""
        flow = self.mu[self.src] * self.w
        back = self.mu[self.dst] * self.rate(self.dst, self.src)
        excess = np.abs(flow - back) > config.STRUCTURAL_TOL * np.maximum(1.0, flow)
        return not bool(excess.any())

    # -- invariant measure ---------------------------------------------

    def _invariant_measure(self) -> np.ndarray:
        """``mu`` from detailed balance on the forward breadth-first tree
        when the network is reversible within the rounding of that tree,
        else by GTH state reduction; either way checked positive and
        invariant."""
        with np.errstate(all="ignore"):
            mu = _tree_measure(self.n, self.src, self.dst, self.w)
            if mu is None:
                mu = _gth_measure(self.L)
        if not np.all(mu > 0):
            raise NumericalError("invariant measure has nonpositive entries")
        # mu @ L over the edges: what flows into each vertex, less what leaves
        inflow = np.bincount(self.dst, mu[self.src] * self.w, minlength=self.n)
        resid = np.abs(inflow - mu * self.exits).max()
        if not resid <= config.STRUCTURAL_TOL * max(1.0, self.w_max):
            raise NumericalError(
                f"invariant measure residual {resid:.3e} above tolerance"
            )
        return mu

    # -- misc ------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Network(n={self.n}, edges={len(self.edges)}, "
            f"w_max={self.w_max:.6g}, reversible={self.reversible})"
        )


class _CheckedRates(NamedTuple):
    """A checked rate matrix handed to :class:`Network` with its row sums,
    the exit rates, as its maker summed them (see :meth:`Network.of_rates`)."""

    rates: np.ndarray
    exits: np.ndarray


def exit_rates(rates: np.ndarray | csr_array) -> np.ndarray:
    """The row sums of a square rate matrix with a zero diagonal, an array
    or a SciPy sparse matrix: for either, bit for bit the dense matrix's
    ``sum(axis=1)`` (:func:`_row_sums`), so a network made from sparse
    rates is the one made from the same rates dense or as an edge list."""
    if not issparse(rates):
        with np.errstate(over="ignore"):
            return rates.sum(axis=1)
    return _row_sums(rates.shape[0], *_sparse_entries(rates))


def _sparse_entries(
    rates: csr_array,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a sparse matrix as ``int64`` rows and
    columns and their values, in (row, column) order, as ``np.nonzero``
    gives those of an array; the matrix is left as it is."""
    rates = csr_array(rates)
    if not rates.has_canonical_format:  # sorted columns, no repeats
        rates = rates.copy()
        rates.sum_duplicates()
    rows = np.repeat(np.arange(rates.shape[0]), np.diff(rates.indptr))
    nonzero = rates.data != 0.0
    return rows[nonzero], rates.indices[nonzero].astype(np.int64), rates.data[nonzero]


#: rows summed at a time by :func:`_row_sums`
_SUM_ROWS = 64


def _row_sums(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The row sums of the ``n x n`` matrix with the weights ``w`` at
    ``(src, dst)``, ``src`` ascending, bit for bit as that dense matrix's
    ``sum(axis=1)``: numpy sums each full row pairwise, zeros included, so
    the rows are formed densely, ``_SUM_ROWS`` at a time, and summed so.
    A sum in any other order (``np.bincount``, say) differs in the last
    bit on many vertices."""
    out = np.empty(n)
    buf = np.zeros((_SUM_ROWS, n))
    bounds = np.searchsorted(src, np.arange(0, n + _SUM_ROWS, _SUM_ROWS))
    for lo, a, b in zip(range(0, n, _SUM_ROWS), bounds, bounds[1:]):
        rows = buf[: min(_SUM_ROWS, n - lo)]
        at = src[a:b] - lo, dst[a:b]
        rows[at] = w[a:b]
        with np.errstate(over="ignore"):
            out[lo : lo + rows.shape[0]] = rows.sum(axis=1)
        rows[at] = 0.0
    return out


# a detailed-balance defect below this many units of (depth + 1) * eps is
# the rounding of the tree products (twice its first-order worst case)
_TREE_ROUNDING = 4


def _tree_measure(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    w: np.ndarray,
) -> np.ndarray | None:
    """Invariant probability of a reversible network from detailed balance
    down a spanning tree, in ``O(m)``; ``None`` if the network is not
    reversible within the rounding of that tree.

    The edges ``src``, ``dst``, ``w`` are sorted by ``(src, dst)``.  If
    every edge ``(x, y)`` has its reverse, the breadth-first search from
    vertex 0 (run only then) gives the tree, ``mu(0) = 1`` and
    ``mu(x) = mu(p) w(p, x) / w(x, p)`` for ``p`` the predecessor of
    ``x``.  Each entry is then a product of ``depth(x)`` rounded ratios,
    off by less than ``depth(x) * eps`` relative, so ``mu(x) w(x, y)`` and
    ``mu(y) w(y, x)`` agree within ``2 (depth + 1) eps`` on every edge
    when the weights are in detailed balance, with ``depth`` the larger
    of the two depths; the result is accepted only if they agree within
    ``_TREE_ROUNDING (depth + 1) eps``, and only if every entry is a
    normal positive number."""
    key = src * n + dst  # ascending, as the edges are sorted
    rkey = dst * n + src
    rev = np.minimum(np.searchsorted(key, rkey), key.size - 1)
    if not np.array_equal(key[rev], rkey):
        return None
    w_back = w[rev]  # w(y, x) for each edge (x, y)
    order, pred = breadth_first(n, src, dst)
    kids = order[1:]
    up = pred[kids]
    arc = np.searchsorted(key, up * n + kids)  # the tree edge (pred(x), x)
    mu = [1.0] * n
    depth = [0] * n
    for x, p, r in zip(kids.tolist(), up.tolist(), (w[arc] / w_back[arc]).tolist()):
        mu[x] = mu[p] * r
        depth[x] = depth[p] + 1
    mu = np.array(mu)
    d = np.array(depth)
    flow, back = mu[src] * w, mu[dst] * w_back
    tol = _TREE_ROUNDING * np.finfo(float).eps * (np.maximum(d[src], d[dst]) + 1)
    balanced = np.all(np.abs(flow - back) <= tol * flow)
    if not (balanced and mu.min() >= np.finfo(float).tiny):
        return None
    return mu / mu.sum()


_GTH_BLOCK = 64


def gth_eliminate(r: np.ndarray, block: int = _GTH_BLOCK) -> list[tuple]:
    """Grassmann-Taksar-Heyman state reduction (Oper. Res. 33, 1985) of the
    chain of rates ``r`` (overwritten; the diagonal is never read) onto
    vertex 0, one ``block`` of vertices at a time from the end; killing is
    a jump to vertex 0.

    A block's exit matrix ``M = -L_BB`` is factored as ``low @ up`` with
    each pivot taken as the sum of the rates still leaving its vertex
    (including those out of the block), never as a difference; the kept
    vertices then gain the rates through the block from two triangular
    solves and one product.  Nothing is subtracted, so each pivot is exact
    to a few ulps however wide the weight range; a pivot that underflows
    to zero or overflows raises ``SingularSystem``.  Returns the blocks
    ``(lo, hi, low, up)``, last first; the pivots, the diagonals of ``up``,
    multiply to ``det(-L)`` off vertex 0.  Costs O(n^3), mostly BLAS-3."""
    blocks = []
    hi = r.shape[0]
    while hi > 1:
        lo = max(1, hi - block)
        b = hi - lo
        # the block's rates, with the rates out of it as a last column
        m = np.empty((b, b + 1))
        m[:, :b] = r[lo:hi, lo:hi]
        m[:, b] = r[lo:hi, :lo].sum(axis=1)
        piv = np.empty(b)
        for k in range(b):
            row = m[k, k + 1 :]
            piv[k] = s = row.sum()
            m[k + 1 :, k + 1 :] += (m[k + 1 :, k, None] / s) * row
        if not (np.isfinite(piv).all() and piv.all()):
            raise SingularSystem("an elimination pivot underflows or overflows")
        # diagonals of m hold self-loop rates, which no pivot reads
        low = np.eye(b) - np.tril(m[:, :b], -1) / piv
        up = np.diag(piv) - np.triu(m[:, :b], 1)
        into = solve_triangular(
            low, r[lo:hi, :lo], lower=True, unit_diagonal=True, check_finite=False
        )
        r[:lo, :lo] += r[:lo, lo:hi] @ solve_triangular(up, into, check_finite=False)
        blocks.append((lo, hi, low, up))
        hi = lo
    return blocks


def _gth_measure(L: np.ndarray, block: int = _GTH_BLOCK) -> np.ndarray:
    """Invariant probability of an irreducible ``L`` with ``n > 1``, exact to
    a few ulps: :func:`gth_eliminate`, then ``mu_B = mu_A L_AB M^-1``."""
    n = L.shape[0]
    r = L.copy()
    blocks = gth_eliminate(r, block)
    mu = np.empty(n)
    mu[0] = 1.0
    for lo, hi, low, up in reversed(blocks):
        # r[:lo, lo:hi] is as it was when the block was censored
        flow = mu[:lo] @ r[:lo, lo:hi]
        w = solve_triangular(up, flow, trans="T", check_finite=False)
        mu[lo:hi] = solve_triangular(
            low, w, lower=True, unit_diagonal=True, trans="T", check_finite=False
        )
    return mu / mu.sum()


NOT_TRIPLES = "edges must be (src, dst, weight) triples of numbers"


def edge_array(edges: Iterable[Edge] | np.ndarray) -> np.ndarray:
    """The edges as an ``(m, 3)`` float64 array of ``(src, dst, weight)``
    rows.  ``edges`` is read once; anything but a sequence of number
    triples raises ``InvalidParams``."""
    rows = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(NOT_TRIPLES) from None
    if a.shape == (0,):
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise InvalidParams(NOT_TRIPLES)
    return a


def _fmt_id(v: float) -> str:
    v = float(v)
    return str(int(v)) if v.is_integer() else repr(v)


def _sorted_edges(
    a: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate the rows of :func:`edge_array` for an ``n``-vertex network
    and return them sorted by ``(src, dst)`` as ``int64`` ``src``, ``dst``
    and ``float64`` weights.

    The first offending row in input order raises; each row is checked for
    integral ids in ``0..n-1``, then a self loop, then a weight that is
    not finite and positive, then a pair listed before.
    """
    ids, w = a[:, :2], a[:, 2]
    integral = (ids == np.floor(ids)).all(axis=1)
    bad_id = ~(integral & (ids >= 0).all(axis=1) & (ids < n).all(axis=1))
    loop = ids[:, 0] == ids[:, 1]
    bad_w = ~(np.isfinite(w) & (w > 0.0))
    pairs = np.where(bad_id[:, None], 0.0, ids).astype(np.int64)
    key = pairs[:, 0] * n + pairs[:, 1]
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(key.size, dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]

    bad = np.flatnonzero(bad_id | loop | bad_w | repeat)
    if bad.size:
        k = bad[0]
        s, d = _fmt_id(ids[k, 0]), _fmt_id(ids[k, 1])
        if bad_id[k]:
            if not integral[k]:
                raise InvalidParams(f"edge ({s}, {d}) has a non-integral vertex id")
            raise InvalidParams(f"edge ({s}, {d}) outside 0..{n - 1}")
        if loop[k]:
            raise InvalidParams(f"self loop at vertex {s} not allowed")
        if bad_w[k]:
            raise NonPositiveWeight(f"edge ({s}, {d}) has weight {float(w[k])}")
        raise DuplicateEdge(f"edge ({s}, {d}) listed twice")
    return pairs[order, 0], pairs[order, 1], w[order]


def breadth_first(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first search from vertex 0 of ``0..n-1`` along the directed
    edges ``src[i] -> dst[i]``: the vertices reached, in the order reached,
    and each vertex's predecessor in the search (negative at 0 and at the
    vertices not reached)."""
    order = np.argsort(src, kind="stable")
    indptr = np.searchsorted(src[order], np.arange(n + 1))
    graph = csr_array((np.ones(src.size), dst[order], indptr), shape=(n, n))
    return breadth_first_order(graph, 0, return_predecessors=True)


def _strongly_connected(n: int, src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether the directed edges ``src[i] -> dst[i]`` on ``0..n-1``, with
    ``src`` ascending, join every vertex to every other: one
    strong-components test, with no search tree."""
    indptr = np.searchsorted(src, np.arange(n + 1))
    # np.nonzero gives strided views; the search reads contiguous indices
    graph = csr_array(
        (np.ones(src.size), np.ascontiguousarray(dst), indptr), shape=(n, n)
    )
    count = connected_components(graph, connection="strong", return_labels=False)
    return count == 1


def _unreachable(n: int, src: np.ndarray, dst: np.ndarray) -> str:
    """The message naming the first vertex that the forward search from 0
    misses, else the first that the backward search misses, for edges that
    :func:`_strongly_connected` has refused."""
    direction, (order, _) = "forward", breadth_first(n, src, dst)
    if order.size == n:
        direction, (order, _) = "backward", breadth_first(n, dst, src)
    missing = int(np.setdiff1d(np.arange(n), order)[0])
    return f"vertex {missing} not {direction}-reachable from 0"


def build_network(edges: Iterable[Edge] | np.ndarray, n: int | None = None) -> Network:
    """Construct and validate a Network.

    When ``n`` is omitted it is inferred as ``max vertex id + 1``.
    """
    if n is None:
        edges = edge_array(edges)
        if not edges.size:
            raise InvalidParams("cannot infer vertex count from empty edge list")
        top = edges[:, :2].max()
        if not np.isfinite(top):
            raise InvalidParams(f"vertex id {_fmt_id(top)} is not an integer")
        n = 1 + int(top)
    return Network(edges, int(n))


def edges_between(
    net: Network, rows: np.ndarray, cols: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``net`` from the distinct vertex ids ``rows`` into the
    distinct ids ``cols`` (``rows`` by default), in the order of the edge
    arrays: their positions in ``rows`` and in ``cols`` and their weights.
    Scattered into zeros they are the off-diagonal entries of
    ``L[np.ix_(rows, cols)]``; every block of ``L`` is cut by it."""
    cols = rows if cols is None else cols
    at_row, at_col = np.full(net.n, -1), np.full(net.n, -1)
    at_row[rows], at_col[cols] = np.arange(rows.size), np.arange(cols.size)
    src, dst = at_row[net.src], at_col[net.dst]
    inside = (src >= 0) & (dst >= 0)
    return src[inside], dst[inside], net.w[inside]


def generator_block(
    net: Network, rows: np.ndarray, cols: np.ndarray | None = None
) -> np.ndarray:
    """``L[np.ix_(rows, cols)]`` (``cols`` is ``rows`` by default) for
    distinct vertex ids, formed from the edge arrays (:func:`edges_between`)
    and the exit rates, without forming ``L``; the entries are ``L``'s, so
    are their bits."""
    cols_ = rows if cols is None else cols
    out = np.zeros((rows.size, cols_.size))
    s, t, w = edges_between(net, rows, cols)
    out[s, t] = w
    both, i, j = np.intersect1d(rows, cols_, assume_unique=True, return_indices=True)
    out[i, j] = -net.exits[both]
    return out


def skeleton(net: Network) -> np.ndarray:
    """Discrete-time jump kernel ``P = Id + L / w_max`` of the network,
    formed from the edge arrays (:func:`generator_block`).

    Rows are probability vectors; the diagonal holds the laziness
    ``1 - w(x) / w_max`` needed to equalize exit rates across vertices.
    Each row is checked to sum to 1.
    """
    if net.n == 1:
        return np.ones((1, 1))
    P = generator_block(net, np.arange(net.n)) / net.w_max
    P[np.diag_indices(net.n)] += 1.0
    # defensive: clamp parasitic -0.0 and verify stochasticity
    P[np.abs(P) < 1e-300] = 0.0
    sums = P.sum(axis=1)
    if np.abs(sums - 1.0).max() > config.ARITHMETIC_TOL * net.n:
        raise NumericalError("skeleton rows do not sum to 1")
    return P


def vertex_set(n: int, ids: Iterable[int], what: str) -> np.ndarray:
    """Sorted ``int64`` ids of a set of vertices of an ``n``-vertex network.

    ``ids`` is read once, so any iterable works.  An id that is not an
    integer (``2.0`` is one, ``2.7`` is not), a repeated id or one outside
    ``0..n-1`` raises ``InvalidParams``; ``what`` names the set in the
    message.
    """
    given = [vertex_id(v, what) for v in ids]
    out = sorted(set(given))
    if len(out) != len(given):
        raise InvalidParams(f"duplicate vertex in {what}")
    if out and (out[0] < 0 or out[-1] >= n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise InvalidParams(f"vertex {bad} of {what} outside 0..{n - 1}")
    return np.asarray(out, dtype=np.int64)


def vertex_id(v, what: str) -> int:
    """The integer ``v`` stands for, which may be any integral number
    (``2.0`` is one, ``2.7`` is not); otherwise ``InvalidParams`` naming
    ``what``, the set or sequence ``v`` belongs to."""
    try:
        return operator.index(v)
    except TypeError:
        pass
    try:
        f = float(v)
    except (TypeError, ValueError):
        raise InvalidParams(f"vertex {v!r} of {what} is not an integer") from None
    if not f.is_integer():
        raise InvalidParams(f"vertex {f!r} of {what} is not an integer")
    return int(f)
