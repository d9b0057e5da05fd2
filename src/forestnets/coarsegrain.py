"""Forest-driven coarse-graining of networks.

Two constructions connect a network to a smaller one:

* the Schur complement of the generator onto a kept vertex set, which is
  the generator of the trace process (watch the walk only on kept
  vertices);
* link operators sending coarse vertices to probability measures on the
  fine network, intertwined (exactly or approximately) with the two
  generators.

This module provides both, plus the quality functionals coupling them:
total-variation intertwining defects of metastable kernels, Gram matrices
and the squeezing functional of a link, operator-norm intertwining
residuals with their return-speed bounds, and an error-budgeted
sparsification of reduced generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from . import config, oracle, sampler
from .errors import (
    EmptyBlock,
    InvalidParams,
    NumericalError,
    ZeroProbability,
)
from .network import (
    Network,
    _strongly_connected,
    edges_between,
    exit_rates,
    generator_block,
    sparse_pays,
    vertex_set,
)
from .norms import check_p, condition_measure, holder_conjugate, lp_norm


# ---------------------------------------------------------------------------
# Schur reduction (trace process)


class ReducedNetwork:
    """The Schur reduction of ``parent`` onto the kept set ``keep``: the
    generator of the walk watched only on kept vertices.

    ``keep`` is validated once, into the sorted ``kept``; position ``i`` of
    the reduction corresponds to parent vertex ``kept[i]``.  The reduced
    ``network`` is the one kept x kept matrix a reduction holds, built on
    first use: the Schur complement (:meth:`_complement`), sparse (CSR)
    exactly when the density rule of :func:`network.sparse_pays` picks it,
    its rates checked and clamped in place by :func:`reduced_rates` and
    taken over by :meth:`Network.of_rates` with the exit rates the check
    summed.  These rates are derived, not input, so no edge list is
    validated: the build runs one strong-components test and leaves
    ``reversible`` to its first read.  ``mu`` is the parent's measure
    conditioned on ``kept``, which the check shows invariant.  ``w_max``
    is the network's, and so is the generator that products read
    (``network.generator``, built once for this level and the next);
    ``hitting_times`` and ``speeds`` are computed once each.

    :meth:`solve_dropped` solves with ``-L_DD``, the parent's generator on
    the ``dropped`` vertices, through one :class:`oracle.CheckedLU` of
    :func:`oracle.block`, made on first use and kept: SuperLU's factors of
    the sparse block when the density rule picks it, with no dense copy of
    ``-L_DD`` beside them, else the dense LU.  The hitting times behind the
    ``speeds`` and every reconstruction through this reduction share it;
    so does the complement when ``-L_DD`` is dense, and on a sparse
    ``-L_DD`` it is summed cluster by cluster instead (:meth:`_complement`).
    """

    def __init__(self, parent: Network, keep: Sequence[int]) -> None:
        self.parent = parent
        self.kept = _canon_keep(parent, keep)

    @cached_property
    def dropped(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.parent.n), self.kept)

    @cached_property
    def _lu(self) -> oracle.CheckedLU:
        return oracle.CheckedLU(oracle.block(self.parent, self.dropped), "-L_DD")

    def solve_dropped(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``-L_DD x = rhs`` (one or several columns) with ``_lu``."""
        return self._lu.solve(rhs)

    @cached_property
    def mu(self) -> np.ndarray:
        return condition_measure(self.parent.mu, self.kept)

    def _complement(self) -> np.ndarray | scipy.sparse.csr_array:
        """The exact, unclamped Schur complement ``L_kk + L_kD (-L_DD)^-1
        L_Dk`` of the parent's generator on ``kept``, stored sparse
        exactly when the density rule picks it.  Where ``-L_DD`` is sparse
        by the rule it is summed cluster by cluster (:func:`_cluster_sum`);
        otherwise ``L_Dk`` is solved for with the dense LU as one
        right-hand side.  Every block is formed from the parent's edge
        arrays (:func:`network.generator_block`)."""
        net, k, d = self.parent, self.kept, self.dropped
        s, t, w = edges_between(net, d)
        if sparse_pays(d.size, s.size + d.size):
            Lbar = _cluster_sum(net, k, d, s, t, w)
        else:
            Lbar = generator_block(net, k)
            if d.size:
                X = self.solve_dropped(generator_block(net, d, k))
                Lbar += generator_block(net, k, d) @ X
        return _stored(Lbar)

    @property
    def w_max(self) -> float:
        return self.network.w_max

    @cached_property
    def network(self) -> Network:
        rates, exits = reduced_rates(self.parent, self.kept, self._complement())
        return Network.of_rates(rates, self.mu, exits)

    @cached_property
    def hitting_times(self) -> np.ndarray:
        """Expected times ``h`` to reach the kept set from every parent
        vertex: zero on ``kept``, and ``-L_DD h = 1`` on ``dropped``."""
        h = np.zeros(self.parent.n)
        if self.dropped.size:
            h[self.dropped] = self.solve_dropped(np.ones(self.dropped.size))
        return h

    @cached_property
    def speeds(self) -> tuple[float, float]:
        """Return speeds ``(beta, gamma)`` toward the kept set: ``1/beta``
        is the worst expected time to re-enter it after one skeleton step
        ``P = Id + L / w_max`` from a kept vertex, ``1/gamma`` the worst
        expected entrance time from a dropped vertex.  ``h`` is zero on
        ``kept``, so a step's expected time is ``sum_y w(x, y) h(y) /
        w_max`` over the dropped ``y``, read off the kept-to-dropped edges
        alone; with nothing dropped both speeds are infinite."""
        h = self.hitting_times
        s, t, w = edges_between(self.parent, self.kept, self.dropped)
        wh = np.bincount(s, w * h[self.dropped[t]], minlength=1)
        one_over_beta = float(wh.max()) / self.parent.w_max if s.size else 0.0
        one_over_gamma = float(h.max())
        beta = math.inf if one_over_beta == 0.0 else 1.0 / one_over_beta
        gamma = math.inf if one_over_gamma == 0.0 else 1.0 / one_over_gamma
        return beta, gamma

    @property
    def L(self) -> np.ndarray:
        return self.network.L


def _stored(Lbar: np.ndarray | scipy.sparse.csr_array):
    """``Lbar`` as a reduction keeps it: CSR exactly when
    :func:`network.sparse_pays` for it, else an array."""
    sparse = scipy.sparse.issparse(Lbar)
    nnz = Lbar.nnz if sparse else np.count_nonzero(Lbar)
    if sparse_pays(Lbar.shape[0], nnz):
        return scipy.sparse.csr_array(Lbar)
    return Lbar.toarray() if sparse else Lbar


#: the largest dropped cluster whose block ``-L_CC`` :func:`_cluster_sum`
#: inverts densely in a batch, padded to a power of two: a batch of
#: ``m``-vertex blocks holds about four ``m x m`` arrays per cluster and
#: takes ``O(m^3)`` flops each.  Chosen on a seeded 64x64 pyramid, one
#: BLAS thread: caps of 16 and 32 slowed its level-0 sum (0.039 and
#: 0.026 s against 0.021 s), caps of 64 to 256 took the same time within
#: noise on level 1 (clusters of up to 254 vertices), and keeping one row
#: of the grid, its 4032-vertex cluster took 9 s and 645 MiB batched
#: against 0.03 s factored by SuperLU.
CLUSTER_MAX = 64


def _cluster_sum(
    net: Network, k: np.ndarray, d: np.ndarray, s: np.ndarray, t: np.ndarray,
    w: np.ndarray,
) -> scipy.sparse.csr_array:
    """The Schur complement of ``net``'s generator on the kept ids ``k`` as
    ``L_kk`` plus one term ``L_kC (-L_CC)^-1 L_Ck`` per weakly connected
    cluster ``C`` of the dropped ids ``d``, whose edges among themselves
    run from positions ``s`` to ``t`` with weights ``w``.  A walk that
    leaves the kept set stays in one cluster until it returns, so
    ``-L_DD`` is block diagonal over the clusters, and a term touches only
    the kept neighbours of its cluster.  The clusters of at most
    ``CLUSTER_MAX`` vertices are taken in buckets of sizes up to a power
    of two, each bucket in one vectorized step: its blocks ``-L_CC``,
    padded with the identity, are inverted together
    (:func:`oracle.checked_inverses`), and its terms are one batched
    product.  The one-vertex clusters, most of them on a grid, are the
    first bucket: ``w(i, c) w(c, j) / w(c)`` for every kept in-neighbour
    ``i`` and out-neighbour ``j`` of ``c``.  A larger cluster is solved
    on its own, through the :class:`oracle.CheckedLU` of its
    :func:`oracle.block` (SuperLU's when the density rule picks it), for
    the columns of its kept out-neighbours only."""
    n_c, label = connected_components(
        scipy.sparse.csr_array((np.ones(s.size), (s, t)), shape=(d.size, d.size)),
        directed=True,
        connection="weak",
    )
    size = np.bincount(label, minlength=n_c)
    members = np.argsort(label, kind="stable")
    local = np.empty(d.size, dtype=np.int64)  # a dropped position's rank in C
    local[members] = np.arange(d.size) - (np.cumsum(size) - size)[label[members]]
    # the edges into each cluster from kept rows and out of it to kept
    # columns, those rows and columns numbered within the cluster
    ki, dj, w_in = edges_between(net, k, d)
    di, kj, w_out = edges_between(net, d, k)
    row_ids, row_at, rank_in = _numbered(label[dj], ki, n_c, k.size)
    col_ids, col_at, rank_out = _numbered(label[di], kj, n_c, k.size)
    n_rows, n_cols = np.diff(row_at), np.diff(col_at)

    ii, jj, ww = edges_between(net, k)
    ids = np.arange(k.size)
    rows, cols, vals = [ii, ids], [jj, ids], [ww, -net.exits[k]]
    for c in np.flatnonzero(size > CLUSTER_MAX).tolist():
        e, f = label[dj] == c, label[di] == c
        A = scipy.sparse.csr_array(
            (w_in[e], (rank_in[e], local[dj[e]])), shape=(n_rows[c], size[c])
        )
        B = np.zeros((size[c], n_cols[c]))
        B[local[di[f]], rank_out[f]] = w_out[f]
        lu = oracle.CheckedLU(oracle.block(net, d[label == c]), "-L_DD")
        T = A @ lu.solve(B)
        r = row_ids[row_at[c]:row_at[c + 1]]
        q = col_ids[col_at[c]:col_at[c + 1]]
        rows.append(np.repeat(r, q.size))
        cols.append(np.tile(q, r.size))
        vals.append(T.ravel())
    bucket = np.frexp(size - 1)[1]  # size in (2^(b-1), 2^b]
    for b in np.unique(bucket[size <= CLUSTER_MAX]).tolist():
        cs = np.flatnonzero(bucket == b)
        slot = np.full(n_c, -1)
        slot[cs] = np.arange(cs.size)
        m, R, Q = 1 << b, n_rows[cs].max(), n_cols[cs].max()
        M = np.zeros((cs.size, m, m))
        M[:, np.arange(m), np.arange(m)] = 1.0
        e = slot[label[s]] >= 0
        M[slot[label[s[e]]], local[s[e]], local[t[e]]] = -w[e]
        x = np.flatnonzero(slot[label] >= 0)
        M[slot[label[x]], local[x], local[x]] = net.exits[d[x]]
        A = np.zeros((cs.size, R, m))
        e = slot[label[dj]] >= 0
        A[slot[label[dj[e]]], rank_in[e], local[dj[e]]] = w_in[e]
        B = np.zeros((cs.size, m, Q))
        e = slot[label[di]] >= 0
        B[slot[label[di[e]]], local[di[e]], rank_out[e]] = w_out[e]
        T = A @ (oracle.checked_inverses(M, "-L_DD") @ B)
        g, r, q = np.nonzero(
            (np.arange(R) < n_rows[cs, None])[:, :, None]
            & (np.arange(Q) < n_cols[cs, None])[:, None, :]
        )
        rows.append(row_ids[row_at[cs[g]] + r])
        cols.append(col_ids[col_at[cs[g]] + q])
        vals.append(T[g, r, q])

    Lbar = scipy.sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(k.size, k.size),
    )
    Lbar.sum_duplicates()
    return Lbar


def _numbered(
    cluster: np.ndarray, vertex: np.ndarray, n_c: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``vertex`` ids (of ``0..n-1``) that each of ``n_c``
    clusters meets, as pairs ``(cluster[i], vertex[i])`` list them: the
    ids, cluster by cluster and ascending within each; where each
    cluster's run of them starts (and the last ends); and each pair's rank
    in its cluster's run."""
    key, rank = np.unique(cluster * n + vertex, return_inverse=True)
    at = np.searchsorted(key, np.arange(n_c + 1) * n)
    return key % n, at, rank - at[cluster]


def _canon_keep(net: Network, keep: Sequence[int]) -> np.ndarray:
    kept = vertex_set(net.n, keep, "kept set")
    if kept.size == 0:
        raise InvalidParams("kept set must be nonempty")
    return kept


def schur_complement(
    net: Network, keep: Sequence[int]
) -> np.ndarray | scipy.sparse.csr_array:
    """Schur complement of the generator onto ``keep`` (exact, unclamped,
    sparse when the density rule picks it), computed afresh:
    ``ReducedNetwork(net, keep)._complement()``."""
    return ReducedNetwork(net, keep)._complement()


def reduced_rates(
    net: Network, kept: np.ndarray, Lbar: np.ndarray | scipy.sparse.csr_array
) -> tuple[np.ndarray | scipy.sparse.csr_array, np.ndarray]:
    """Off-diagonal part of the Schur complement ``Lbar`` of ``net``'s
    generator on ``kept``, noise below zero clamped to zero, formed in
    place: ``Lbar`` is overwritten (sparse when it is, with the zeros
    dropped) and returned, with its row sums, the exit rates.  Raises
    ``NumericalError`` on an entry below ``-1e-12 max(1, w_max)``, or when
    ``mu(. | kept)`` is not invariant for the clamped generator (see
    :func:`check_invariant`).
    """
    sparse = scipy.sparse.issparse(Lbar)
    if sparse:
        Lbar.setdiag(0.0)
        values = Lbar.data
    else:
        np.fill_diagonal(Lbar, 0.0)
        values = Lbar
    lowest = values.min(initial=0.0)
    if lowest < -1e-12 * max(1.0, net.w_max):
        raise NumericalError(
            f"Schur complement off-diagonal {lowest:.3e} is negative "
            "beyond clamping tolerance"
        )
    np.maximum(values, 0.0, out=values)
    if sparse:
        Lbar.eliminate_zeros()
    return Lbar, check_invariant(condition_measure(net.mu, kept), Lbar)


def check_invariant(mu: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Raise ``NumericalError`` unless the probability vector ``mu`` is
    invariant for the generator with off-diagonal rates ``rates`` (an
    array or a SciPy sparse matrix): the
    residual ``max |mu rates - mu exits|`` must stay within
    ``RESIDUAL_TOL`` times the largest exit rate, at least 1.  Returns the
    exit rates, the row sums of ``rates`` (:func:`network.exit_rates`).
    """
    exits = exit_rates(rates)
    resid = float(np.abs(mu @ rates - mu * exits).max())
    if not resid <= config.RESIDUAL_TOL * max(1.0, float(exits.max())):
        raise NumericalError(
            f"conditioned measure residual {resid:.3e} under the reduced "
            "generator above tolerance"
        )
    return exits


def schur_reduce(net: Network, keep: Sequence[int]) -> ReducedNetwork:
    """Reduce the network onto ``keep`` by the Schur complement of ``L``
    (see :class:`ReducedNetwork`)."""
    reduction = ReducedNetwork(net, keep)
    reduction.network  # built now, so that the Schur guards raise here
    return reduction


# ---------------------------------------------------------------------------
# link operators


def partition_link(net: Network, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Link operator of a partition: row ``i`` is ``mu`` conditioned on
    block ``i`` (a probability measure supported on that block)."""
    covered = np.zeros(net.n, dtype=bool)
    rows = []
    for b in blocks:
        idx = vertex_set(net.n, b, "partition")
        if idx.size == 0:
            raise EmptyBlock("partition contains an empty block")
        if covered[idx].any():
            raise InvalidParams(f"vertex {idx[covered[idx]][0]} appears in two blocks")
        covered[idx] = True
        rows.append(idx)
    if not covered.all():
        raise EmptyBlock("partition does not cover every vertex")
    link = np.zeros((len(rows), net.n))
    for i, idx in enumerate(rows):
        link[i, idx] = condition_measure(net.mu, idx)
    return link


def check_q_prime(q_prime: float) -> None:
    """Raise ``InvalidParams`` unless ``q'`` is positive and finite."""
    if not (math.isfinite(q_prime) and q_prime > 0):
        raise InvalidParams(f"q' must be positive and finite, got {q_prime}")


def kernel_link(net: Network, keep: Sequence[int], q_prime: float) -> np.ndarray:
    """Link operator of a kept set: row ``i`` is the killed-walk kernel
    ``K_{q'}(kept[i], .)`` on the full network (a probability measure).
    The kept rows alone are solved, from ``(q' Id - L)^T`` (see
    :func:`oracle.killed_lu`); ``K_{q'}`` itself is never formed."""
    kept = _canon_keep(net, keep)
    check_q_prime(q_prime)
    rows = np.zeros((net.n, kept.size))
    rows[kept, np.arange(kept.size)] = 1.0
    link = q_prime * oracle.killed_lu(net, q_prime, transpose=True).solve(rows).T
    _check_rows_sum_to_one(net, link, q_prime, "kernel link")
    return link


def _check_rows_sum_to_one(
    net: Network, P: np.ndarray, q_prime: float, what: str
) -> None:
    """Raise ``NumericalError`` unless the rows of ``P``, built from
    ``K_{q'}``, sum to 1 within the larger of ``STRUCTURAL_TOL * n`` and 64
    units of ``eps * (1 + w_max/q')``, the error of the solve."""
    unit = np.finfo(float).eps * (1.0 + net.w_max / q_prime)
    allowed = max(config.STRUCTURAL_TOL * net.n, 64 * unit)
    if np.abs(P.sum(axis=1) - 1.0).max() > allowed:
        raise NumericalError(f"{what} rows do not sum to 1")


def metastable_kernel(
    net: Network, blocks: Sequence[Sequence[int]], q_prime: float
) -> np.ndarray:
    """Coarse kernel of a partition: start from the block equilibrium, run
    the walk to an independent exponential time of rate ``q'``, record the
    landing block."""
    return _metastable(net, blocks, q_prime)[2]


def _metastable(
    net: Network, blocks: Sequence[Sequence[int]], q_prime: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The partition link, the link run through the fine kernel
    ``link K_{q'}`` (solved from the transposed system, without forming
    ``K_{q'}``) and the metastable kernel."""
    link = partition_link(net, blocks)
    check_q_prime(q_prime)
    link_K = q_prime * oracle.killed_lu(net, q_prime, transpose=True).solve(link.T).T
    # row i of the link is positive exactly on block i
    member = (link > 0.0).astype(float)
    Pbar = link_K @ member.T
    _check_rows_sum_to_one(net, Pbar, q_prime, "metastable kernel")
    return link, link_K, Pbar


def intertwining_error_tv(
    net: Network, blocks: Sequence[Sequence[int]], q_prime: float
) -> np.ndarray:
    """Row-wise total variation gap between running the fine kernel after
    the link and running the coarse kernel before it.  Both sides' rows
    sum to those of the metastable kernel, which :func:`_metastable` has
    checked to the scale of the solve, so they are not checked again
    against an absolute tolerance."""
    link, link_K, Pbar = _metastable(net, blocks, q_prime)
    return 0.5 * np.abs(link_K - Pbar @ link).sum(axis=1)


def tv_meta_bound(
    net: Network,
    q: float,
    q_prime: float,
    p: float,
    n_walks: int = 64,
    *,
    seed: int,
) -> float:
    """Product bound on the expected total-variation intertwining defect of
    the random-partition metastable kernel:

        (E |roots at rate q|)^(1/p)
        * ( (q'/q) * sum_x E |loop-erased walk from x at rate q'| )^(1/p*)

    The mean root count is exact; mean loop-erased path lengths (edge
    counts) are Monte-Carlo estimates.
    """
    check_p(p)
    q, _ = oracle.check_q(net, q)
    check_q_prime(q_prime)
    mean_roots, _ = oracle.root_count_moments(net, q)
    total_len = 0.0
    for x in range(net.n):
        for i in range(n_walks):
            path = sampler.loop_erased_walk(
                net, q_prime, x, seed=seed, sample_index=x * n_walks + i
            )
            total_len += len(path) - 1
    mean_len_sum = total_len / n_walks
    pstar = holder_conjugate(p)
    first = mean_roots ** (1.0 / p)
    base = (q_prime / q) * mean_len_sum
    second = base ** (1.0 / pstar)
    return float(first * second)


# ---------------------------------------------------------------------------
# Gram matrix and squeezing


class SqueezingResult(NamedTuple):
    value: float
    singular: bool


def gram(link: np.ndarray, mu: Sequence[float]) -> np.ndarray:
    """Gram matrix of link rows under the ``1/mu``-weighted inner product."""
    link = np.asarray(link, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if link.ndim != 2 or link.shape[1] != mu.size:
        raise InvalidParams("link must be (m, n) with n matching mu")
    if mu.min() <= 0:
        raise InvalidParams("mu must be strictly positive")
    g = (link / mu) @ link.T
    return 0.5 * (g + g.T)


def squeezing(link: np.ndarray, mu: Sequence[float]) -> SqueezingResult:
    """Squeezing functional ``sqrt(trace(Gram^-1))``.

    Returns ``inf`` with the ``singular`` flag when the Gram matrix is
    numerically rank deficient (linearly dependent link rows).
    """
    g = gram(link, mu)
    lam = np.linalg.eigvalsh(g)
    if lam[0] <= config.GRAM_SINGULAR_REL * max(lam[-1], 1e-300):
        return SqueezingResult(value=math.inf, singular=True)
    return SqueezingResult(value=float(np.sqrt((1.0 / lam).sum())), singular=False)


def squeezing_spectral_bound(
    net: Network, q: float, q_prime: float, m: int
) -> float:
    """Spectral upper bound for the expected squeezing of the kernel link
    on the random root set, conditioned on seeing exactly ``m`` roots.

    With ``p_j(u) = u / (u + lam_j)`` over the nonzero spectrum, set
    ``S = sum p_j(q')^2 (1 - p_j(q))^2``, ``T = sum p_j(q)^2 / p_j(q')^2``
    and ``V = sum p_j(q)(1 - p_j(q))``; the bound is

        min( sqrt(1 + sqrt(T/S)) * exp(sqrt(S T) - V),
             sqrt(1 + T) * exp((1 + S T)/2 - V) ) / P(|roots| = m).

    Requires a real spectrum (reversible network).
    """
    if not (1 <= m <= net.n):
        raise InvalidParams(f"m must lie in 1..{net.n}")
    q, _ = oracle.check_q(net, q)
    check_q_prime(q_prime)
    lam = oracle._nonzero_spectrum(net, np.zeros(0, dtype=np.int64))
    scale = max(1.0, float(np.abs(lam).max(initial=0.0)))
    if np.abs(lam.imag).max(initial=0.0) > 1e-9 * scale:
        raise InvalidParams(
            "spectral squeezing bound needs a real spectrum "
            "(reversible network)"
        )
    lam = lam.real
    pq = q / (q + lam)
    pqp = q_prime / (q_prime + lam)
    s_n = float((pqp ** 2 * (1.0 - pq) ** 2).sum())
    t_n = float((pq ** 2 / pqp ** 2).sum())
    v_n = float((pq * (1.0 - pq)).sum())
    if lam.size == 0:
        numerator = 1.0
    else:
        branch2 = math.sqrt(1.0 + t_n) * math.exp((1.0 + s_n * t_n) / 2.0 - v_n)
        if s_n > 0:
            branch1 = math.sqrt(1.0 + math.sqrt(t_n / s_n)) * math.exp(
                math.sqrt(s_n * t_n) - v_n
            )
            numerator = min(branch1, branch2)
        else:
            numerator = branch2
    law = oracle.root_count_law(net, q)
    prob = float(law.pmf[np.searchsorted(law.counts, m)]) if m in law.counts else 0.0
    if prob <= 1e-300:
        raise ZeroProbability(f"P(|roots| = {m}) vanishes")
    return numerator / prob


# ---------------------------------------------------------------------------
# operator intertwining residual and return speeds


def beta_gamma(net: Network, keep: Sequence[int]) -> tuple[float, float]:
    """Return speeds toward ``keep``: ``ReducedNetwork(net, keep).speeds``."""
    return ReducedNetwork(net, keep).speeds


@dataclass
class ResidualReport:
    p: float
    residual: float
    bound: float


def operator_intertwining_residual(
    net: Network, keep: Sequence[int], q_prime: float, p: float
) -> ResidualReport:
    """Intertwining defect of the kernel link against the Schur-reduced
    generator, with its return-speed bound.

    The defect matrix is ``M = Lbar Link - Link L``.  For finite ``p`` the
    reported residual maximizes ``norm(M f, p, kept) / norm(f, p, all)``
    over indicator functions (a documented lower bound on the true operator
    norm); for ``p = inf`` it is the exact row-sup operator norm.  The
    bound is ``2 q' (w_max / beta)^(1/p*) / mu(kept)^(1/p)``.
    """
    check_p(p)
    red = ReducedNetwork(net, keep)
    kept = red.kept
    link = kernel_link(net, kept, q_prime)
    M = red.L @ link - link @ net.L

    mu = net.mu
    mu_kept = red.mu
    if p == math.inf:
        residual = float(np.abs(M).sum(axis=1).max())
    else:
        residual = 0.0
        for z in range(net.n):
            num = lp_norm(M[:, z], mu_kept, p)
            den = mu[z] ** (1.0 / p)
            residual = max(residual, num / den)

    beta, _ = red.speeds
    pstar = holder_conjugate(p)
    w_over_beta = net.w_max / beta
    factor = w_over_beta ** (1.0 / pstar)
    mass = float(mu[kept].sum())
    mass_factor = mass ** (-1.0 / p)
    bound = 2.0 * q_prime * factor * mass_factor
    return ResidualReport(p=p, residual=residual, bound=bound)


# ---------------------------------------------------------------------------
# sparsification


def _generator_row(W: np.ndarray, x: int) -> np.ndarray:
    """Row ``x`` of the generator whose off-diagonal rates are ``W``, which
    has a zero diagonal: the row of ``W`` with minus its sum at ``x``."""
    row = W[x].copy()
    row[x] = -row.sum()
    return row


def _support_connected(w: np.ndarray) -> bool:
    return _strongly_connected(w.shape[0], *np.nonzero(w > 0))


def check_theta(theta: float) -> None:
    """Raise ``InvalidParams`` unless the sparsification budget ``theta``
    is finite and ``>= 0``."""
    if theta < 0 or not np.isfinite(theta):
        raise InvalidParams("theta must be finite and >= 0")


def sparsify(reduction: ReducedNetwork, q_prime: float, theta: float) -> Network:
    """A sparser network in place of ``reduction.network``, which must be
    reversible: reciprocal edge pairs are removed while every row of the
    intertwining defect stays within ``(1 + theta)`` times its original
    sup norm.  When no pair can go, ``reduction.network`` itself is
    returned.

    Candidate pairs are visited by increasing conductance
    ``mu(x) w(x, y)``; a removal is kept only if the reduced support stays
    irreducible and both touched defect rows respect the budget.  Weights
    removed from a row are folded into the diagonal, preserving zero row
    sums, reversibility and the invariant measure; only the two generator
    rows a removal touches are formed to test it (:func:`_generator_row`),
    against the rows of ``link L``, formed once.
    The sparsified network is made from the remaining rates by
    :meth:`Network.of_rates`, with ``reduction.mu`` as its measure and the
    exit rates that :func:`check_invariant` sums while it checks that
    measure.  The support test is the network's own strong-components
    test; on the symmetric support of a reversible reduction it is the
    same as reaching every vertex from 0.
    """
    check_theta(theta)
    check_q_prime(q_prime)
    red_net = reduction.network
    if not red_net.reversible:
        raise InvalidParams("sparsification requires a reversible reduction")
    link = kernel_link(reduction.parent, reduction.kept, q_prime)
    link_L = link @ reduction.parent.L
    M0 = red_net.L @ link - link_L
    budget = (1.0 + theta) * np.abs(M0).max(axis=1)

    m = red_net.n
    W = red_net.L.copy()
    np.fill_diagonal(W, 0.0)

    pairs = sorted(
        (
            (float(reduction.mu[i] * W[i, j]), i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if W[i, j] > 0.0 and W[j, i] > 0.0
        ),
        key=lambda t: (t[0], t[1], t[2]),
    )

    removed_any = False
    for _, i, j in pairs:
        wij, wji = W[i, j], W[j, i]
        if wij == 0.0 or wji == 0.0:
            continue  # might have been taken out by an earlier removal
        W[i, j] = 0.0
        W[j, i] = 0.0
        ok = _support_connected(W)
        if ok:
            for row in (i, j):
                defect = _generator_row(W, row) @ link - link_L[row]
                if np.abs(defect).max() > budget[row] + 1e-15:
                    ok = False
                    break
        if ok:
            removed_any = True
        else:
            W[i, j] = wij
            W[j, i] = wji

    if not removed_any:
        return red_net
    exits = check_invariant(reduction.mu, W)
    sparse_net = Network.of_rates(W, reduction.mu, exits)  # W is its L
    if not sparse_net.reversible:
        raise NumericalError("sparsified network lost reversibility")
    return sparse_net
