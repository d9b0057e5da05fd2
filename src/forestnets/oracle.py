"""Exact determinantal statistics of random rooted spanning forests.

For a network with generator ``L``, killing rate ``q >= 0`` and a forced
root set ``B``, the random forest measure weights every spanning forest
``phi`` whose root set contains ``B`` proportionally to
``w(phi) * q^(|roots| - |B|)``, where ``w(phi)`` is the product of its edge
weights.  Everything observable about this measure reduces to the killed
Green's function

    G = inverse of (q Id - L) restricted to the rows/columns outside B,

embedded back into the full vertex set with zero rows and columns on ``B``.
This module evaluates those closed forms: normalizing constant, root and
edge inclusion probabilities (transfer currents), the law and moments of
the number of roots, the path law of the loop-erased random walk, expected
hitting times, and the mean time to hit the random root set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
from .network import Network, vertex_id, vertex_set

OrientedEdge = tuple[int, int]


# ---------------------------------------------------------------------------
# validation helpers


def _free_vertices(net: Network, roots: np.ndarray) -> np.ndarray:
    mask = np.ones(net.n, dtype=bool)
    mask[roots] = False
    return np.flatnonzero(mask)


def _check_q(q: float, roots: np.ndarray) -> float:
    q = float(q)
    if not np.isfinite(q) or q < 0:
        raise InvalidParams(f"killing rate q must be finite and >= 0, got {q}")
    if q == 0 and roots.size == 0:
        raise InvalidParams("q = 0 requires a nonempty forced root set")
    return q


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

    @property
    def free(self) -> np.ndarray:
        mask = np.ones(self.G.shape[0], dtype=bool)
        mask[self.roots] = False
        return np.flatnonzero(mask)


def green(net: Network, q: float, B: Sequence[int] = ()) -> GreenKernel:
    """Green's function ``G = [q Id - L]^-1`` outside ``B``, with ``K = qG``."""
    roots = vertex_set(net.n, B, "root set")
    q = _check_q(q, roots)
    free = _free_vertices(net, roots)
    n = net.n
    G = np.zeros((n, n))
    if free.size:
        L = net.L
        M = q * np.eye(free.size) - L[np.ix_(free, free)]
        try:
            Gf = np.linalg.solve(M, np.eye(free.size))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"q Id - L singular at q={q}") from exc
        resid = np.abs(M @ Gf - np.eye(free.size)).max()
        if resid > config.RESIDUAL_TOL:
            raise SingularSystem(
                f"Green residual {resid:.3e} above {config.RESIDUAL_TOL:.1e}"
            )
        G[np.ix_(free, free)] = Gf
    return GreenKernel(q=q, roots=roots, G=G, K=q * G)


def partition_fn(net: Network, q: float, B: Sequence[int] = ()) -> float:
    """Normalizing constant of the forest measure:
    ``det[q Id - L]`` restricted outside ``B``.

    Equals the weighted sum over spanning forests rooted at supersets of
    ``B`` of ``w(phi) q^(|roots| - |B|)``, and also the product of
    ``q + eigenvalue`` over the spectrum of ``-L`` outside ``B``.
    """
    roots = vertex_set(net.n, B, "root set")
    q = float(q)
    if not np.isfinite(q):
        raise InvalidParams("q must be finite")
    free = _free_vertices(net, roots)
    if free.size == 0:
        return 1.0
    L = net.L
    M = q * np.eye(free.size) - L[np.ix_(free, free)]
    sign, logdet = np.linalg.slogdet(M)
    if sign == 0:
        return 0.0
    return float(sign * math.exp(logdet))


def _log_partition(net: Network, q: float, forbidden: np.ndarray) -> tuple[float, float]:
    """(sign, log |det|) of [q Id - L] with rows/cols ``forbidden`` removed."""
    mask = np.ones(net.n, dtype=bool)
    mask[forbidden] = False
    free = np.flatnonzero(mask)
    if free.size == 0:
        return 1.0, 0.0
    L = net.L
    M = q * np.eye(free.size) - L[np.ix_(free, free)]
    sign, logdet = np.linalg.slogdet(M)
    return float(sign), float(logdet)


# ---------------------------------------------------------------------------
# inclusion probabilities (determinantal formulas)


def _clamp_unit(x: float) -> float:
    if -config.PROB_CLAMP_TOL <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + config.PROB_CLAMP_TOL:
        return 1.0
    return x


def root_inclusion_prob(
    net: Network, q: float, A: Sequence[int], B: Sequence[int] = ()
) -> float:
    """Probability that every vertex of ``A`` is a root of the random forest.

    Determinantal: ``det [K]_(A minus B)`` with ``K = qG``; forced roots in
    ``A`` contribute factor one.
    """
    roots = vertex_set(net.n, B, "root set")
    q = _check_q(q, roots)
    a = np.setdiff1d(vertex_set(net.n, A, "root event"), roots)
    if a.size == 0:
        return 1.0
    K = green(net, q, roots).K
    val = float(np.linalg.det(K[np.ix_(a, a)]))
    return _clamp_unit(val)


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
    roots = vertex_set(net.n, B, "root set")
    q = _check_q(q, roots)
    edges = [
        (vertex_id(s, "edge event"), vertex_id(d, "edge event")) for s, d in edge_list
    ]
    L = net.L
    for s, d in edges:
        # an id outside 0..n-1 must not index L (a negative one would wrap);
        # s == d reads the negative diagonal, so it is absent too
        present = 0 <= s < net.n and 0 <= d < net.n and (
            L[s, d] > 0.0 or (signed and L[d, s] > 0.0)
        )
        if not present:
            raise UnknownEdge(f"edge ({s}, {d}) not in network")
    if len(set(edges)) != len(edges):
        raise InvalidParams("repeated edge in edge event")
    if signed:
        unordered = [frozenset(e) for e in edges]
        if len(set(unordered)) != len(unordered):
            raise InvalidParams("signed edge event repeats an undirected edge")
    G = green(net, q, roots).G

    def j_plus(x: int, e: OrientedEdge) -> float:
        return G[x, e[0]] * L[e]

    def j_val(x: int, e: OrientedEdge) -> float:
        if not signed:
            return j_plus(x, e)
        rev = (e[1], e[0])
        return j_plus(x, e) - (G[x, rev[0]] * L[rev])

    k = len(edges)
    cur = np.zeros((k, k))
    for i, e in enumerate(edges):
        for jj, ep in enumerate(edges):
            cur[i, jj] = j_val(e[0], ep) - j_val(e[1], ep)
    return cur


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


def spectrum(net: Network, B: Sequence[int] = ()) -> np.ndarray:
    """Eigenvalues of ``-L`` restricted outside ``B`` (complex array)."""
    roots = vertex_set(net.n, B, "root set")
    free = _free_vertices(net, roots)
    if free.size == 0:
        return np.zeros(0, dtype=complex)
    L = net.L
    return np.linalg.eigvals(-L[np.ix_(free, free)])


def _split_spectrum(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split eigenvalues into reals and one representative per conjugate pair."""
    if lam.size == 0:
        return np.zeros(0), np.zeros(0, dtype=complex)
    scale = max(1.0, float(np.abs(lam).max()))
    imag_tol = 1e-9 * scale
    real = lam[np.abs(lam.imag) <= imag_tol].real
    plus = sorted(lam[lam.imag > imag_tol], key=lambda z: (z.real, z.imag))
    minus = list(lam[lam.imag < -imag_tol])
    if len(plus) != len(minus):
        raise NumericalError("complex eigenvalues do not pair up")
    pair_tol = 1e-8 * scale
    reps = []
    for z in plus:
        dists = [abs(np.conj(z) - m) for m in minus]
        k = int(np.argmin(dists))
        if dists[k] > pair_tol:
            raise NumericalError(
                f"no conjugate within {pair_tol:.1e} for eigenvalue {z}"
            )
        minus.pop(k)
        reps.append(z)
    return np.asarray(real), np.asarray(reps, dtype=complex)


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

    The count is ``|B|`` plus a sum of independent Bernoulli variables with
    success probability ``q / (q + eigenvalue)`` for each real eigenvalue of
    ``-L`` outside ``B``, plus, for each complex conjugate pair, an
    independent {0,1,2}-valued variable with
    ``P(2) = |p|^2`` and ``P(1) = 2 Re(p) - 2 |p|^2``.
    """
    roots = vertex_set(net.n, B, "root set")
    q = _check_q(q, roots)
    lam = spectrum(net, roots)
    real, pairs = _split_spectrum(lam)

    pmf = np.array([1.0])
    for lam_j in real:
        p = q / (q + lam_j)
        pmf = np.convolve(pmf, [1.0 - p, p])
    for z in pairs:
        p = q / (q + z)
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
    mean, variance = root_count_moments(net, q, roots)
    return RootCountLaw(counts=counts, pmf=pmf, mean=mean, variance=variance)


def root_count_moments(
    net: Network, q: float, B: Sequence[int] = ()
) -> tuple[float, float]:
    """Mean and variance of the root count from the spectrum outside ``B``:
    ``mean = |B| + sum_j q/(q+lam_j)`` and
    ``variance = sum_j [q/(q+lam_j) - (q/(q+lam_j))^2]``."""
    roots = vertex_set(net.n, B, "root set")
    q = _check_q(q, roots)
    lam = spectrum(net, roots)
    p = q / (q + lam) if lam.size else np.zeros(0, dtype=complex)
    mean_c = p.sum()
    var_c = (p - p * p).sum()
    scale = max(1.0, abs(mean_c), abs(var_c))
    if max(abs(mean_c.imag), abs(var_c.imag)) > config.STRUCTURAL_TOL * scale:
        raise NumericalError("root-count moments have nonreal residue")
    return roots.size + float(mean_c.real), float(var_c.real)


# ---------------------------------------------------------------------------
# loop-erased walk path law


def lerw_path_prob(
    net: Network, q: float, path: Sequence[int], B: Sequence[int] = ()
) -> float:
    """Probability that the loop-erased killed walk traces exactly ``path``.

    The walk starts at ``path[0]``, is killed at rate ``q`` and absorbed on
    ``B``; its chronological loop erasure is a self-avoiding path.  If the
    path ends inside ``B`` the walk was absorbed; otherwise it was killed at
    the final vertex.  Both cases are ratios of characteristic polynomials:

        ends in B:   w(path) * det[q Id - L]_(V minus B minus interior)
                     / det[q Id - L]_(V minus B)
        killed:  q * w(path) * det[q Id - L]_(V minus B minus path)
                     / det[q Id - L]_(V minus B)
    """
    roots = vertex_set(net.n, B, "root set")
    q = _check_q(q, roots)
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

    weight = 1.0
    for a, b in zip(p[:-1], p[1:]):
        weight *= net.L[a, b]
    if weight == 0.0:
        return 0.0

    ends_absorbed = p[-1] in root_set
    removed = p[:-1] if ends_absorbed else p
    sign_d, log_d = _log_partition(net, q, roots)
    if sign_d <= 0:
        raise SingularSystem("normalizing determinant is not positive")
    forbidden = np.concatenate([roots, np.asarray(removed, dtype=np.int64)])
    sign_n, log_n = _log_partition(net, q, forbidden)
    val = sign_n * math.exp(log_n - log_d) * weight
    if not ends_absorbed:
        val *= q
    return _clamp_unit(val)


# ---------------------------------------------------------------------------
# hitting times


def hitting_times(net: Network, B: Sequence[int]) -> np.ndarray:
    """Expected times ``E_x[T_B]`` to reach ``B``, for every start vertex.

    Zero on ``B``; outside, the unique solution of ``[-L] h = 1`` restricted
    to the complement.
    """
    roots = vertex_set(net.n, B, "root set")
    if roots.size == 0:
        raise InvalidParams("hitting times need a nonempty target set")
    free = _free_vertices(net, roots)
    h = np.zeros(net.n)
    if free.size:
        L = net.L
        M = -L[np.ix_(free, free)]
        try:
            hf = np.linalg.solve(M, np.ones(free.size))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("hitting-time system singular") from exc
        check_residual(M, hf, 1.0, "hitting-time")
        h[free] = hf
    return h


def check_residual(M: np.ndarray, x: np.ndarray, b, what: str) -> None:
    """Raise ``SingularSystem`` unless the solution ``x`` of ``M x = b``
    has a residual ``max |M x - b|`` within ``RESIDUAL_TOL`` times the
    largest entry of ``x``, at least 1."""
    resid = float(np.abs(M @ x - b).max())
    if not resid <= config.RESIDUAL_TOL * max(1.0, float(np.abs(x).max())):
        raise SingularSystem(f"{what} residual {resid:.3e}")


def mean_root_hitting(net: Network, q: float) -> float:
    """Expected time for the walk to reach the random root set:
    ``(1/q) (1 - prod_j lam_j / (q + lam_j))`` over the nonzero spectrum
    of ``-L``; independent of the start vertex."""
    if q <= 0 or not np.isfinite(q):
        raise InvalidParams("q must be positive and finite")
    lam = spectrum(net)
    k = int(np.argmin(np.abs(lam)))
    scale = max(1.0, float(np.abs(lam).max()))
    if abs(lam[k]) > 1e-8 * scale:
        raise NumericalError("no (near) zero eigenvalue found; not a generator?")
    rest = np.delete(lam, k)
    prod = np.prod(rest / (q + rest)) if rest.size else 1.0 + 0.0j
    if abs(np.imag(prod)) > config.STRUCTURAL_TOL * max(1.0, abs(prod)):
        raise NumericalError("eigenvalue product has nonreal residue")
    return (1.0 - float(np.real(prod))) / q


def charpoly_root_coeffs(net: Network) -> np.ndarray:
    """Magnitudes ``a_k`` of the coefficients of ``x^k`` in ``det(x Id - L)``.

    ``a_k`` equals the total weight of spanning forests with exactly ``k``
    roots; index 0..n.
    """
    L = net.L
    coeffs = np.poly(np.linalg.eigvals(L))  # highest power first
    scale = max(1.0, float(np.abs(coeffs).max()))
    if np.abs(coeffs.imag).max() > 1e-8 * scale:
        raise NumericalError("characteristic polynomial has nonreal residue")
    a = np.abs(coeffs.real[::-1])  # a[k] multiplies x^k
    return a


def mean_root_hitting_conditional(net: Network, m: int) -> float:
    """Expected time to reach the roots, conditioned on seeing exactly ``m``
    roots: the ratio ``a_(m+1) / a_m`` of characteristic-polynomial
    coefficient magnitudes (with ``a_(n+1) = 0``); independent of ``q`` and
    of the start vertex."""
    if not (1 <= m <= net.n):
        raise InvalidParams(f"root count m must lie in 1..{net.n}")
    a = charpoly_root_coeffs(net)
    scale = max(1.0, float(a.max()))
    if a[m] <= 1e-13 * scale:
        raise ZeroCoefficient(f"coefficient a_{m} vanishes")
    upper = a[m + 1] if m + 1 <= net.n else 0.0
    return float(upper / a[m])
