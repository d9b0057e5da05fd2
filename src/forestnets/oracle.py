"""Exact determinantal statistics of random rooted spanning forests.

For a network with generator ``L``, killing rate ``q >= 0`` and a forced
root set ``B``, the random forest measure weights every spanning forest
``phi`` whose root set contains ``B`` proportionally to
``w(phi) * q^(|roots| - |B|)``, where ``w(phi)`` is the product of its edge
weights.  Everything observable about this measure reduces to the killed
Green's function ``G``, the inverse of ``q Id - L`` outside ``B`` (zero on
``B``), and to ``det(q Id - L)`` outside a vertex set.  This module
evaluates those closed forms: normalizing constant, root and edge
inclusion probabilities (transfer currents), the law and moments of the
number of roots, the path law of the loop-erased random walk, expected
hitting times, and the mean time to hit the random root set.  Each query
solves only what it reads: vertex events (the partition function, root
inclusion, the path law) read determinants from the subtraction-free GTH
elimination of :func:`network.gth_eliminate`; edge events solve one
checked LU for their endpoints' columns of ``G``; only a caller that wants
all of ``G`` reads :func:`green`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import config
from .errors import (
    InvalidParams,
    InvalidStart,
    NonPMF,
    NotSelfAvoiding,
    NumericalError,
    SingularSystem,
    UnknownEdge,
    ZeroCoefficient,
)
from .network import (
    SPARSE_MIN_SIZE,
    Network,
    edges_between,
    generator_block,
    gth_eliminate,
    sparse_pays,
    vertex_id,
    vertex_set,
)

OrientedEdge = tuple[int, int]


# ---------------------------------------------------------------------------
# validation helpers


def _free_vertices(net: Network, roots: np.ndarray) -> np.ndarray:
    return np.setdiff1d(np.arange(net.n), roots)


def check_q(
    net: Network, q: float, B: Sequence[int] = ()
) -> tuple[float, np.ndarray]:
    """The killing rate as a float and the forced root set as sorted ids;
    ``InvalidParams`` unless ``q`` is finite and ``>= 0``, and positive
    when ``B`` is empty."""
    roots = vertex_set(net.n, B, "root set")
    q = float(q)
    if not np.isfinite(q) or q < 0:
        raise InvalidParams(f"killing rate q must be finite and >= 0, got {q}")
    if q == 0 and roots.size == 0:
        raise InvalidParams("q = 0 requires a nonempty forced root set")
    return q, roots


# ---------------------------------------------------------------------------
# checked solves, dense or sparse


def block(
    net: Network, part: np.ndarray | None = None, q: float = 0.0, *,
    transpose: bool = False,
) -> np.ndarray | scipy.sparse.csc_array:
    """``q Id - L`` on the sorted vertex ids ``part`` (every vertex by
    default), or its transpose, as the matrix to factor: a CSC matrix
    built from the edge arrays (:func:`network.edges_between`) when
    :func:`network.sparse_pays` for it, else the dense block, which is
    read from ``L`` for every vertex and is formed from the edge arrays
    (:func:`network.generator_block`) for a part.  Either way the entries
    are ``-w`` off the diagonal and ``q`` plus the exit rate on it."""
    size = net.n if part is None else part.size
    if size >= SPARSE_MIN_SIZE:
        src, dst, w = (
            (net.src, net.dst, net.w) if part is None else edges_between(net, part)
        )
        if sparse_pays(size, w.size + size):
            ids = np.arange(size)
            exits = net.exits if part is None else net.exits[part]
            with np.errstate(over="ignore"):  # CheckedLU refuses an overflow
                data = np.concatenate([-w, q + exits])
            rows, cols = np.concatenate([src, ids]), np.concatenate([dst, ids])
            if transpose:
                rows, cols = cols, rows
            return scipy.sparse.csc_array((data, (rows, cols)), shape=(size, size))
    L = net.L if part is None else generator_block(net, part)
    with np.errstate(over="ignore"):  # CheckedLU refuses an overflow
        M = q * np.eye(size) - L
    return M.T if transpose else M


@functools.lru_cache(maxsize=64)
def _check_weights(m: int) -> np.ndarray:
    """The fixed positive combination of ``m`` solved columns that
    :meth:`CheckedLU.solve` checks, drawn once per width: the first ``m``
    uniforms on ``[0.5, 1.5)`` of ``default_rng(0)``."""
    v = np.random.default_rng(0).uniform(0.5, 1.5, m)
    v.flags.writeable = False
    return v


class CheckedLU:
    """One LU factorization of the square matrix ``M`` (``what`` in
    errors): LAPACK's dense LU when ``M`` is an array, SuperLU's when it is
    a SciPy sparse matrix (see :func:`block`), and the same checks
    either way.  It raises ``SingularSystem`` on an entry or row sum that
    overflows or on an exact zero pivot (LAPACK's test of singularity,
    and SuperLU's "exactly singular").  Each :meth:`solve` checks
    ``max |M x - b|`` against ``RESIDUAL_TOL`` times
    ``max(1, max |x| * max(1, ||M||_inf))``: an LU residual grows as the
    matrix's norm times the solution's, so large rates pass as small ones
    do.  Several columns are checked on one fixed combination of them
    (:func:`_check_weights`), the same for every solve of that width."""

    def __init__(self, M: np.ndarray | scipy.sparse.csc_array, what: str) -> None:
        self.M = M
        self.what = what
        with np.errstate(over="ignore"):  # an overflow is refused below
            self.norm = float(abs(M).sum(axis=1).max())
        if not math.isfinite(self.norm):
            raise SingularSystem(f"{what} overflows")
        if scipy.sparse.issparse(M):
            try:
                self.factors = scipy.sparse.linalg.splu(M)
                pivots_nonzero = True
            except RuntimeError as exc:
                if "exactly singular" not in str(exc):
                    raise
                pivots_nonzero = False
        else:
            with warnings.catch_warnings():
                # lu_factor warns exactly when a pivot is zero, checked here
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                self.factors = scipy.linalg.lu_factor(M)
            pivots_nonzero = np.diag(self.factors[0]).all()
        if not pivots_nonzero:
            raise SingularSystem(f"{what} is singular (zero pivot)")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``M x = rhs``; several columns are checked on one fixed
        random combination, in ``O(nnz(M) + nk)`` beyond the solve itself;
        a right-hand side that is not finite raises ``NumericalError``."""
        if not np.isfinite(rhs).all():
            raise NumericalError(f"{self.what}: right-hand side is not finite")
        if scipy.sparse.issparse(self.M):
            x = self.factors.solve(rhs)
        else:
            x = scipy.linalg.lu_solve(self.factors, rhs)
        xv, bv = x, rhs
        with np.errstate(over="ignore", invalid="ignore"):  # NaN is refused
            if x.ndim > 1:
                v = _check_weights(x.shape[1])
                xv, bv = x @ v, rhs @ v
            resid = float(np.abs(self.M @ xv - bv).max())
        scale = float(np.abs(xv).max()) * max(1.0, self.norm)
        if not resid <= config.RESIDUAL_TOL * max(1.0, scale):
            raise SingularSystem(f"{self.what} residual {resid:.3e}")
        return x


def checked_inverses(M: np.ndarray, what: str) -> np.ndarray:
    """The inverses of the stack of square matrices ``M`` (``what`` in
    errors), checked as :class:`CheckedLU` checks a solve: ``SingularSystem``
    on an entry or row sum that overflows, on an exactly singular matrix,
    or when ``max |M X - Id|`` exceeds ``RESIDUAL_TOL`` times
    ``max(1, max |X| * max(1, ||M||_inf))`` for one of them."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        norm = np.abs(M).sum(axis=-1).max(axis=-1)
    if not np.isfinite(norm).all():
        raise SingularSystem(f"{what} overflows")
    try:
        X = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularSystem(f"{what} is singular (zero pivot)") from None
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(M @ X - np.eye(M.shape[-1])).max(axis=(-2, -1))
        scale = np.abs(X).max(axis=(-2, -1)) * np.maximum(1.0, norm)
    ok = resid <= config.RESIDUAL_TOL * np.maximum(1.0, scale)
    if not ok.all():
        raise SingularSystem(f"{what} residual {resid[~ok].max():.3e}")
    return X


# ---------------------------------------------------------------------------
# Green's function


@dataclass
class GreenKernel:
    """Killed Green's function of a network.

    ``G`` solves ``(q Id - L) G = Id`` on the vertices outside ``roots``
    and carries zero rows/columns on ``roots``.  ``K = q G`` is the law of
    the walk position when killed at rate ``q`` before hitting ``roots``:
    with no forced roots its rows are probability vectors.
    """

    q: float
    roots: np.ndarray
    G: np.ndarray
    K: np.ndarray


def killed_lu(
    net: Network, q: float, free: np.ndarray | None = None, *, transpose: bool = False
) -> CheckedLU:
    """The one :class:`CheckedLU` of ``q Id - L`` on ``free`` (every vertex
    by default), for a ``q`` already checked: ``K_q f`` is ``q`` times its
    solve for ``f``.  With ``transpose`` the transpose is the factored
    matrix, so the residual check reads its own norm: rows ``r`` of
    ``K_q`` are ``q`` times the solve for ``r^T``.  The matrix is
    :func:`block`'s: sparse when the density rule picks it, else dense."""
    return CheckedLU(block(net, free, q, transpose=transpose), "q Id - L")


def green(net: Network, q: float, B: Sequence[int] = ()) -> GreenKernel:
    """Green's function ``G = [q Id - L]^-1`` outside ``B``, with ``K = qG``,
    solved for the identity through :func:`killed_lu`.  It forms the whole
    ``n x n`` inverse, so only callers that want the whole matrix read it;
    a caller that applies ``K_q`` solves with :func:`killed_lu`."""
    q, roots = check_q(net, q, B)
    free = _free_vertices(net, roots)
    G = np.zeros((net.n, net.n))
    if free.size:
        G[np.ix_(free, free)] = killed_lu(net, q, free).solve(np.eye(free.size))
    return GreenKernel(q=q, roots=roots, G=G, K=q * G)


def partition_fn(net: Network, q: float, B: Sequence[int] = ()) -> float:
    """Normalizing constant of the forest measure:
    ``det[q Id - L]`` restricted outside ``B``.

    Equals the weighted sum over spanning forests rooted at supersets of
    ``B`` of ``w(phi) q^(|roots| - |B|)``, and also the product of
    ``q + eigenvalue`` over the spectrum of ``-L`` outside ``B``.
    ``NumericalError`` when it overflows.
    """
    q, roots = check_q(net, q, B)
    try:
        return math.exp(_log_partition(net, q, roots))
    except OverflowError:
        raise NumericalError("partition function overflows") from None


def _log_partition(net: Network, q: float, forbidden: np.ndarray) -> float:
    """``log det[q Id - L]`` off ``forbidden``: the sum of the logs of the
    positive pivots of :func:`network.gth_eliminate` on the free vertices,
    killed at rate ``q`` plus their rates into ``forbidden``.  A pivot is
    at most ``q + exit rate``; ``SingularSystem`` if that overflows."""
    free = _free_vertices(net, forbidden)
    with np.errstate(over="ignore"):
        if not np.isfinite(q + net.exits[free]).all():
            raise SingularSystem("q Id - L overflows")
    r = np.pad(generator_block(net, free), (1, 0))  # killing: a jump to 0
    r[1:, 0] = q + generator_block(net, free, forbidden).sum(axis=1)
    return float(sum(np.log(np.diag(up)).sum() for *_, up in gth_eliminate(r)))


def _removal_ratio(
    net: Network, q: float, roots: np.ndarray, removed: np.ndarray, log_w: float
) -> float:
    """``exp(log_w) * Z_(B u S) / Z_B``, clamped to ``[0, 1]``, for
    ``B = roots`` and ``S = removed``, with ``Z`` from :func:`_log_partition`
    taken in logs so that neither the weight nor a determinant overflows."""
    log_d = _log_partition(net, q, roots)
    log_n = _log_partition(net, q, np.concatenate([roots, removed]))
    return _clamp_unit(math.exp(log_w + log_n - log_d))


# ---------------------------------------------------------------------------
# inclusion probabilities (determinantal formulas)


def _clamp_unit(x: float) -> float:
    if -config.PROB_CLAMP_TOL <= x <= 1.0 + config.PROB_CLAMP_TOL:
        return min(max(x, 0.0), 1.0)
    return x


def root_inclusion_prob(
    net: Network, q: float, A: Sequence[int], B: Sequence[int] = ()
) -> float:
    """Probability that every vertex of ``A`` is a root of the random forest.

    With ``A' = A minus B`` (forced roots in ``A`` contribute factor one),
    a ratio of forest determinants, as in :func:`lerw_path_prob`:

        q^|A'| * det[q Id - L]_(V minus B minus A') / det[q Id - L]_(V minus B)
    """
    q, roots = check_q(net, q, B)
    a = np.setdiff1d(vertex_set(net.n, A, "root event"), roots)
    if a.size == 0:
        return 1.0
    if q == 0:
        return 0.0
    return _removal_ratio(net, q, roots, a, a.size * math.log(q))


def transfer_current(
    net: Network,
    q: float,
    edge_list: Sequence[OrientedEdge],
    B: Sequence[int] = (),
    signed: bool = False,
) -> np.ndarray:
    """Transfer-current matrix of a list of oriented edges.

    Entry ``(e, e')`` is ``J(tail of e, e') - J(head of e, e')`` where
    ``J(x, e') = G(x, tail of e') w(e')``.  With ``signed=True`` each
    ``J(x, e')`` is antisymmetrized over the two orientations of ``e'``,
    which turns principal minors into probabilities of seeing each edge in
    either orientation.
    """
    q, roots = check_q(net, q, B)
    edges = check_edge_event(net, edge_list, signed)
    tail, head = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    # only the endpoints' columns of G are read: G[:, j] is the column of
    # ends[j], solved for alone, and zero for a forced root
    ends = np.union1d(tail, head)
    free = _free_vertices(net, roots)
    live = np.flatnonzero(np.isin(ends, free))
    G = np.zeros((net.n, ends.size))
    if live.size:
        unit = np.zeros((free.size, live.size))
        unit[np.searchsorted(free, ends[live]), np.arange(live.size)] = 1.0
        G[np.ix_(free, live)] = killed_lu(net, q, free).solve(unit)
    at_tail, at_head = np.searchsorted(ends, tail), np.searchsorted(ends, head)
    J = G[:, at_tail] * net.rate(tail, head)  # J[x, e'] for every vertex x
    if signed:
        J = J - G[:, at_head] * net.rate(head, tail)
    return J[tail] - J[head]


def check_edge_event(
    net: Network, edge_list: Sequence[OrientedEdge], signed: bool = False
) -> list[OrientedEdge]:
    """The edges of :func:`transfer_current` as id pairs; ``UnknownEdge``
    for one not in the network (nor reversed, if ``signed``), or a repeat."""
    edges = [
        (vertex_id(s, "edge event"), vertex_id(d, "edge event")) for s, d in edge_list
    ]
    for s, d in edges:
        # an id outside 0..n-1 is no vertex, and s == d no edge
        present = 0 <= s < net.n and 0 <= d < net.n and s != d and (
            net.rate(s, d) > 0.0 or (signed and net.rate(d, s) > 0.0)
        )
        if not present:
            raise UnknownEdge(f"edge ({s}, {d}) not in network")
    if len(set(edges)) != len(edges):
        raise InvalidParams("repeated edge in edge event")
    if signed:
        unordered = [frozenset(e) for e in edges]
        if len(set(unordered)) != len(unordered):
            raise InvalidParams("signed edge event repeats an undirected edge")
    return edges


def edge_inclusion_prob(
    net: Network,
    q: float,
    edge_list: Sequence[OrientedEdge],
    B: Sequence[int] = (),
    signed: bool = False,
) -> float:
    """Probability that all listed edges belong to the random forest.

    ``signed=False``: edges must appear exactly with the given orientation.
    ``signed=True``: each edge may appear in either orientation (endpoints
    must then be pairwise distinct across the event to stay meaningful).
    """
    cur = transfer_current(net, q, edge_list, B, signed=signed)
    val = float(np.linalg.det(cur))
    return _clamp_unit(val)


# ---------------------------------------------------------------------------
# spectrum-driven laws


def _nonzero_spectrum(net: Network, roots: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``-L`` outside ``roots``; with no roots, those of
    ``M[:-1, :-1] - M[-1, :-1]`` with ``M = -L``, which are exactly the
    ``n - 1`` besides the zero of ``M 1 = 0``.  ``NumericalError`` when
    the matrix or its spectrum overflows."""
    free = _free_vertices(net, roots)
    M = -net.L[np.ix_(free, free)]
    if roots.size == 0:
        with np.errstate(over="ignore", invalid="ignore"):
            M = M[:-1, :-1] - M[-1, :-1]
    if not np.isfinite(M).all():
        raise NumericalError("the deflated -L overflows")
    lam = np.linalg.eigvals(M)
    if not np.isfinite(lam).all():
        raise NumericalError("the spectrum of -L overflows")
    return lam


def _split_spectrum(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split the eigenvalues of a real matrix into the reals and one
    representative per conjugate pair.  LAPACK returns each pair as
    adjacent exact conjugates, the positive imaginary part first."""
    plus, minus = lam[lam.imag > 0], lam[lam.imag < 0]
    if not np.array_equal(np.conj(plus), minus):
        raise NumericalError("complex eigenvalues do not pair up")
    return lam[lam.imag == 0].real, plus


@dataclass
class RootCountLaw:
    """Distribution of the number of roots of the random forest."""

    counts: np.ndarray  # integer support |B| .. n
    pmf: np.ndarray
    mean: float
    variance: float

    def as_dict(self) -> dict[int, float]:
        return {int(k): float(p) for k, p in zip(self.counts, self.pmf)}


def root_count_law(net: Network, q: float, B: Sequence[int] = ()) -> RootCountLaw:
    """Exact law of the root count.

    The count is ``|B|``, or one certain root when ``B`` is empty (the zero
    eigenvalue of ``-L``), plus a sum of independent Bernoulli variables
    with success probability ``p = q / (q + eigenvalue)`` for each real
    nonzero eigenvalue of ``-L`` outside ``B``, plus, for each complex
    conjugate pair, an independent {0,1,2}-valued variable with
    ``P(2) = |p|^2`` and ``P(1) = 2 Re(p) - 2 |p|^2``.
    """
    q, roots = check_q(net, q, B)
    real, pairs = _split_spectrum(_nonzero_spectrum(net, roots))
    p_real, p_pairs = q / (q + real), q / (q + pairs)

    pmf = np.array([1.0]) if roots.size else np.array([0.0, 1.0])
    for p in p_real:
        pmf = np.convolve(pmf, [1.0 - p, p])
    for p in p_pairs:
        p2 = abs(p) ** 2
        p1 = 2.0 * p.real - 2.0 * p2
        p0 = 1.0 - 2.0 * p.real + p2
        pmf = np.convolve(pmf, [p0, p1, p2])

    lo, hi = -1e-10, 1.0 + 1e-10
    if pmf.min() < lo or pmf.max() > hi:
        raise NonPMF(
            f"root-count pmf entries outside [0,1]: "
            f"min={pmf.min():.3e}, max={pmf.max():.3e}"
        )
    pmf = np.clip(pmf, 0.0, 1.0)

    counts = np.arange(roots.size, roots.size + pmf.size)
    mean = max(roots.size, 1) + p_real.sum() + 2.0 * p_pairs.real.sum()
    variance = (p_real - p_real**2).sum() + 2.0 * (p_pairs - p_pairs**2).real.sum()
    return RootCountLaw(counts, pmf, mean=float(mean), variance=float(variance))


def root_count_moments(
    net: Network, q: float, B: Sequence[int] = ()
) -> tuple[float, float]:
    """Mean and variance of the root count (see :func:`root_count_law`):
    ``mean = max(|B|, 1) + sum_j q/(q+lam_j)`` and
    ``variance = sum_j [q/(q+lam_j) - (q/(q+lam_j))^2]`` over the nonzero
    spectrum outside ``B``."""
    law = root_count_law(net, q, B)
    return law.mean, law.variance


# ---------------------------------------------------------------------------
# loop-erased walk path law


def lerw_path_prob(
    net: Network, q: float, path: Sequence[int], B: Sequence[int] = ()
) -> float:
    """Probability that the loop-erased killed walk traces exactly ``path``.

    The walk starts at ``path[0]``, is killed at rate ``q`` and absorbed on
    ``B``; its chronological loop erasure is a self-avoiding path.  If the
    path ends inside ``B`` the walk was absorbed; otherwise it was killed at
    the final vertex.  Both cases are ratios of characteristic polynomials,
    taken in logs so that neither the path weight nor a determinant
    overflows:

        ends in B:   w(path) * det[q Id - L]_(V minus B minus interior)
                     / det[q Id - L]_(V minus B)
        killed:  q * w(path) * det[q Id - L]_(V minus B minus path)
                     / det[q Id - L]_(V minus B)
    """
    q, roots, p = check_path(net, q, path, B)
    ends_absorbed = p[-1] in roots
    factors = net.rate(p[:-1], p[1:]).tolist() + ([] if ends_absorbed else [q])
    if not all(factors):
        return 0.0
    removed = np.asarray(p[:-1] if ends_absorbed else p, dtype=np.int64)
    return _removal_ratio(net, q, roots, removed, sum(map(math.log, factors)))


def check_path(
    net: Network, q: float, path: Sequence[int], B: Sequence[int] = ()
) -> tuple[float, np.ndarray, list[int]]:
    """:func:`check_q`, then the path of :func:`lerw_path_prob` as a list
    of ids: nonempty, self-avoiding, in range, starting outside ``B`` and
    entering ``B`` at most at its end."""
    q, roots = check_q(net, q, B)
    p = [vertex_id(x, "path") for x in path]
    if not p:
        raise InvalidParams("path must contain at least one vertex")
    if len(set(p)) != len(p):
        raise NotSelfAvoiding(f"path {p} repeats a vertex")
    if any(x < 0 or x >= net.n for x in p):
        raise InvalidParams(f"path vertex outside 0..{net.n - 1}")
    root_set = set(roots.tolist())
    if p[0] in root_set:
        raise InvalidStart(f"path starts inside the forced root set: {p[0]}")
    if any(x in root_set for x in p[1:-1]):
        raise InvalidParams("path passes through the forced root set")
    return q, roots, p


# ---------------------------------------------------------------------------
# hitting times


def hitting_times(net: Network, B: Sequence[int]) -> np.ndarray:
    """Expected times ``E_x[T_B]`` to reach ``B``, for every start vertex.

    Zero on ``B``; outside, the unique solution of ``[-L] h = 1`` restricted
    to the complement, solved by the Schur reduction onto ``B`` (see
    :attr:`coarsegrain.ReducedNetwork.hitting_times`).
    """
    from .coarsegrain import ReducedNetwork  # coarsegrain imports oracle

    return ReducedNetwork(net, check_targets(net, B)).hitting_times


def check_targets(net: Network, B: Sequence[int]) -> np.ndarray:
    """The target set of :func:`hitting_times` as sorted ids;
    ``InvalidParams`` unless it is a nonempty set of vertices."""
    roots = vertex_set(net.n, B, "root set")
    if roots.size == 0:
        raise InvalidParams("hitting times need a nonempty target set")
    return roots


def mean_root_hitting(net: Network, q: float) -> float:
    """Expected time for the walk to reach the random root set:
    ``P(|roots| >= 2) / q``, which is
    ``(1/q) (1 - prod_j lam_j / (q + lam_j))`` over the nonzero spectrum
    of ``-L``; independent of the start vertex."""
    return float(root_count_law(net, q).pmf[2:].sum()) / q


def charpoly_root_coeffs(net: Network) -> np.ndarray:
    """Magnitudes ``a_k`` of the coefficients of ``x^k`` in ``det(x Id - L)``
    ``= x prod_j (x + lam_j)`` over the nonzero spectrum of ``-L``.

    ``a_k`` equals the total weight of spanning forests with exactly ``k``
    roots; index 0..n, with ``a_0 = 0``.
    """
    lam = _nonzero_spectrum(net, np.zeros(0, dtype=np.int64))
    _split_spectrum(lam)  # np.poly is real exactly on conjugate pairs
    coeffs = np.atleast_1d(np.poly(-lam))  # highest power first
    return np.concatenate([[0.0], np.abs(coeffs[::-1])])


def mean_root_hitting_conditional(net: Network, m: int) -> float:
    """Expected time to reach the roots, conditioned on seeing exactly ``m``
    roots: the ratio ``a_(m+1) / a_m`` of characteristic-polynomial
    coefficient magnitudes (with ``a_(n+1) = 0``); independent of ``q`` and
    of the start vertex."""
    check_root_count(net, m)
    a = charpoly_root_coeffs(net)
    scale = max(1.0, float(a.max()))
    if a[m] <= 1e-13 * scale:
        raise ZeroCoefficient(f"coefficient a_{m} vanishes")
    upper = a[m + 1] if m + 1 <= net.n else 0.0
    return float(upper / a[m])


def check_root_count(net: Network, m: int) -> None:
    """``InvalidParams`` unless ``m`` is a root count ``1..n`` of ``net``."""
    if not (1 <= m <= net.n):
        raise InvalidParams(f"root count m must lie in 1..{net.n}")
