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
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from . import config, oracle, sampler
from .errors import (
    EmptyBlock,
    InvalidParams,
    NumericalError,
    SingularSystem,
    ZeroProbability,
)
from .network import Network, reachable, skeleton, vertex_id, vertex_set
from .norms import condition_measure, holder_conjugate, lp_norm, tv_distance


# ---------------------------------------------------------------------------
# Schur reduction (trace process)


class ReducedNetwork:
    """The Schur reduction of ``parent`` onto the kept set ``keep``: the
    generator of the walk watched only on kept vertices.

    ``keep`` is validated once, into the sorted ``kept``; position ``i`` of
    the reduction corresponds to parent vertex ``kept[i]``.  What depends on
    the Schur complement is computed on first use and kept: the exact
    complement ``Lbar``, whose off-diagonal rates :func:`reduced_rates`
    checks once, with the reduced maximal exit rate ``w_max``; the reduced
    ``network``; and the return ``speeds``.  ``mu`` is the parent's
    measure conditioned on ``kept``, which those checks show invariant for
    the reduced generator, so the network takes it rather than solving for
    one; reading ``mu`` or ``w_max`` never builds the network.

    :meth:`solve_dropped` solves with ``-L_DD``, the parent's generator on
    the ``dropped`` vertices, through one LU factorization made on first
    use and kept, so that every reconstruction through this reduction
    shares it.  The Schur complement still takes its own dense solve.
    """

    def __init__(self, parent: Network, keep: Sequence[int]) -> None:
        self.parent = parent
        self.kept = _canon_keep(parent, keep)

    @cached_property
    def dropped(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.parent.n), self.kept)

    @cached_property
    def _lu(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """``-L_DD``, kept for the residual checks, and its LU factors."""
        d = self.dropped
        A = -self.parent.L[np.ix_(d, d)]
        # lu_factor only warns on a singular matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            try:
                lu, piv = scipy.linalg.lu_factor(A)
            except scipy.linalg.LinAlgWarning as exc:
                raise SingularSystem("-L_DD is singular") from exc
        if not np.diag(lu).all():
            raise SingularSystem("-L_DD has a zero pivot")
        return A, (lu, piv)

    def solve_dropped(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``-L_DD x = rhs`` (one or several columns) with the kept
        factorization; the residual is checked as
        :func:`oracle.check_residual` does."""
        A, factors = self._lu
        x = scipy.linalg.lu_solve(factors, rhs)
        oracle.check_residual(A, x, rhs, "dropped-block")
        return x

    @cached_property
    def mu(self) -> np.ndarray:
        return condition_measure(self.parent.mu, self.kept)

    @cached_property
    def _schur(self) -> tuple[np.ndarray, float]:
        Lbar = schur_complement(self.parent, self.kept)
        rates = reduced_rates(self.parent, self.kept, Lbar)
        return Lbar, float(rates.sum(axis=1).max())

    @property
    def Lbar(self) -> np.ndarray:
        """The exact Schur complement of the parent's generator on ``kept``."""
        return self._schur[0]

    @property
    def w_max(self) -> float:
        return self._schur[1]

    @cached_property
    def network(self) -> Network:
        # the rates reduced_rates checked, recomputed rather than kept next
        # to Lbar and the network's own generator
        rates = np.maximum(self.Lbar - np.diag(np.diag(self.Lbar)), 0.0)
        return Network(_nonzero_edges(rates), self.kept.size, mu=self.mu)

    @cached_property
    def speeds(self) -> tuple[float, float]:
        """Return speeds ``(beta, gamma)`` toward the kept set (see
        :func:`beta_gamma`)."""
        return beta_gamma(self.parent, self.kept)

    @property
    def L(self) -> np.ndarray:
        return self.network.L


def _canon_keep(net: Network, keep: Sequence[int]) -> np.ndarray:
    kept = vertex_set(net.n, keep, "kept set")
    if kept.size == 0:
        raise InvalidParams("kept set must be nonempty")
    return kept


def schur_complement(net: Network, keep: Sequence[int]) -> np.ndarray:
    """Schur complement of the generator onto ``keep`` (exact, unclamped)."""
    kept = _canon_keep(net, keep)
    L = net.L
    drop = np.setdiff1d(np.arange(net.n), kept)
    if drop.size == 0:
        return L.copy()
    A = L[np.ix_(kept, kept)]
    Bm = L[np.ix_(kept, drop)]
    C = L[np.ix_(drop, kept)]
    D = L[np.ix_(drop, drop)]
    X = np.linalg.solve(D, C)
    return A - Bm @ X


def reduced_rates(net: Network, kept: np.ndarray, Lbar: np.ndarray) -> np.ndarray:
    """Off-diagonal part of the Schur complement ``Lbar`` of ``net``'s
    generator on ``kept``, noise below zero clamped to zero.  Raises
    ``NumericalError`` on an entry below ``-1e-12 max(1, w_max)``, or when
    ``mu(. | kept)`` is not invariant for the clamped generator (see
    :func:`check_invariant`).
    """
    off = Lbar - np.diag(np.diag(Lbar))
    floor = -1e-12 * max(1.0, net.w_max)
    if off.min() < floor:
        raise NumericalError(
            f"Schur complement off-diagonal {off.min():.3e} is negative "
            "beyond clamping tolerance"
        )
    rates = np.maximum(off, 0.0)
    check_invariant(condition_measure(net.mu, kept), rates)
    return rates


def check_invariant(mu: np.ndarray, rates: np.ndarray) -> None:
    """Raise ``NumericalError`` unless the probability vector ``mu`` is
    invariant for the generator with off-diagonal rates ``rates``: the
    residual ``max |mu rates - mu exits|`` must stay within
    ``RESIDUAL_TOL`` times the largest exit rate, at least 1.
    """
    exits = rates.sum(axis=1)
    resid = float(np.abs(mu @ rates - mu * exits).max())
    if not resid <= config.RESIDUAL_TOL * max(1.0, float(exits.max())):
        raise NumericalError(
            f"conditioned measure residual {resid:.3e} under the reduced "
            "generator above tolerance"
        )


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
    seen: set[int] = set()
    rows = []
    for b in blocks:
        if len(b) == 0:
            raise EmptyBlock("partition contains an empty block")
        ids = []
        for v in b:
            v = vertex_id(v, "partition")
            if v in seen:
                raise InvalidParams(f"vertex {v} appears in two blocks")
            if not (0 <= v < net.n):
                raise InvalidParams(f"vertex {v} outside 0..{net.n - 1}")
            seen.add(v)
            ids.append(v)
        rows.append(np.asarray(sorted(ids), dtype=np.int64))
    if len(seen) != net.n:
        raise EmptyBlock("partition does not cover every vertex")
    link = np.zeros((len(rows), net.n))
    for i, idx in enumerate(rows):
        link[i, idx] = condition_measure(net.mu, idx)
    return link


def kernel_link(net: Network, keep: Sequence[int], q_prime: float) -> np.ndarray:
    """Link operator of a kept set: row ``i`` is the killed-walk kernel
    ``K_{q'}(kept[i], .)`` on the full network (a probability measure)."""
    kept = _canon_keep(net, keep)
    if q_prime <= 0 or not np.isfinite(q_prime):
        raise InvalidParams("q' must be positive and finite")
    K = oracle.green(net, q_prime).K
    link = K[kept, :]
    rows = link.sum(axis=1)
    if np.abs(rows - 1.0).max() > config.STRUCTURAL_TOL * net.n:
        raise NumericalError("kernel link rows do not sum to 1")
    return link


def metastable_kernel(
    net: Network, blocks: Sequence[Sequence[int]], q_prime: float
) -> np.ndarray:
    """Coarse kernel of a partition: start from the block equilibrium, run
    the walk to an independent exponential time of rate ``q'``, record the
    landing block."""
    link, K = _partition_kernel(net, blocks, q_prime)
    return _metastable(net, link, K)


def _partition_kernel(
    net: Network, blocks: Sequence[Sequence[int]], q_prime: float
) -> tuple[np.ndarray, np.ndarray]:
    """The partition link and the killed kernel ``K_{q'}``."""
    link = partition_link(net, blocks)
    if q_prime <= 0 or not np.isfinite(q_prime):
        raise InvalidParams("q' must be positive and finite")
    return link, oracle.green(net, q_prime).K


def _metastable(net: Network, link: np.ndarray, K: np.ndarray) -> np.ndarray:
    # row i of the link is positive exactly on block i
    member = (link > 0.0).astype(float)
    Pbar = link @ K @ member.T
    rows = Pbar.sum(axis=1)
    if np.abs(rows - 1.0).max() > config.STRUCTURAL_TOL * net.n:
        raise NumericalError("metastable kernel rows do not sum to 1")
    return Pbar


def intertwining_error_tv(
    net: Network, blocks: Sequence[Sequence[int]], q_prime: float
) -> np.ndarray:
    """Row-wise total variation gap between running the fine kernel after
    the link and running the coarse kernel before it."""
    link, K = _partition_kernel(net, blocks, q_prime)
    Pbar = _metastable(net, link, K)
    fine = link @ K
    coarse = Pbar @ link
    return np.asarray(
        [tv_distance(fine[i], coarse[i]) for i in range(link.shape[0])]
    )


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
    if p != math.inf and p < 1:
        raise InvalidParams("p must be >= 1 or inf")
    if q <= 0 or q_prime <= 0:
        raise InvalidParams("q and q' must be positive")
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
    first = mean_roots ** (1.0 / p) if p != math.inf else 1.0
    base = (q_prime / q) * mean_len_sum
    second = base ** (1.0 / pstar) if pstar != math.inf else 1.0
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
    if q <= 0 or q_prime <= 0:
        raise InvalidParams("q and q' must be positive")
    lam = oracle.spectrum(net)
    scale = max(1.0, float(np.abs(lam).max()))
    if np.abs(lam.imag).max() > 1e-9 * scale:
        raise InvalidParams(
            "spectral squeezing bound needs a real spectrum "
            "(reversible network)"
        )
    lam = np.sort(lam.real)
    if abs(lam[0]) > 1e-8 * scale:
        raise NumericalError("missing zero eigenvalue")
    lam = lam[1:]
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
    """Return speeds toward a kept set.

    ``1/beta`` is the worst expected time to re-enter the kept set after
    one skeleton step from a kept vertex; ``1/gamma`` the worst expected
    entrance time from a dropped vertex.
    """
    kept = _canon_keep(net, keep)
    h = oracle.hitting_times(net, kept)
    P = skeleton(net)
    one_over_beta = float((P[kept, :] @ h).max())
    drop = np.setdiff1d(np.arange(net.n), kept)
    one_over_gamma = float(h[drop].max()) if drop.size else 0.0
    beta = math.inf if one_over_beta == 0.0 else 1.0 / one_over_beta
    gamma = math.inf if one_over_gamma == 0.0 else 1.0 / one_over_gamma
    return beta, gamma


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
    if p != math.inf and p < 1:
        raise InvalidParams("p must be >= 1 or inf")
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
    factor = w_over_beta ** (1.0 / pstar) if pstar != math.inf else 1.0
    mass = float(mu[kept].sum())
    mass_factor = mass ** (-1.0 / p) if p != math.inf else 1.0
    bound = 2.0 * q_prime * factor * mass_factor
    return ResidualReport(p=p, residual=residual, bound=bound)


# ---------------------------------------------------------------------------
# sparsification


def _nonzero_edges(w: np.ndarray) -> np.ndarray:
    """``(m, 3)`` edge array of the nonzero entries of a rate matrix."""
    i, j = np.nonzero(w)
    return np.column_stack([i, j, w[i, j]])


def _support_connected(w: np.ndarray) -> bool:
    src, dst = np.nonzero(w > 0)
    return bool(reachable(w.shape[0], src, dst).all())


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
    sums, reversibility and the invariant measure.  The sparsified network
    takes ``reduction.mu`` as its measure once :func:`check_invariant`
    has checked it against the remaining rates.
    """
    if theta < 0 or not np.isfinite(theta):
        raise InvalidParams("theta must be finite and >= 0")
    red_net = reduction.network
    if not red_net.reversible:
        raise InvalidParams("sparsification requires a reversible reduction")
    link = kernel_link(reduction.parent, reduction.kept, q_prime)
    Lfine = reduction.parent.L
    M0 = red_net.L @ link - link @ Lfine
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

    def generator(w: np.ndarray) -> np.ndarray:
        g = w.copy()
        np.fill_diagonal(g, 0.0)
        np.fill_diagonal(g, -g.sum(axis=1))
        return g

    removed_any = False
    for _, i, j in pairs:
        wij, wji = W[i, j], W[j, i]
        if wij == 0.0 or wji == 0.0:
            continue  # might have been taken out by an earlier removal
        W[i, j] = 0.0
        W[j, i] = 0.0
        ok = _support_connected(W)
        if ok:
            Ls = generator(W)
            for row in (i, j):
                defect = Ls[row] @ link - link[row] @ Lfine
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
    check_invariant(reduction.mu, W)
    sparse_net = Network(_nonzero_edges(W), m, mu=reduction.mu)
    if not sparse_net.reversible:
        raise NumericalError("sparsified network lost reversibility")
    return sparse_net
